#include "mvee/analysis/field_sensitive.h"

#include <utility>

namespace mvee {

bool LocsMayAlias(const FieldLoc& a, const FieldLoc& b) {
  if (a.object != b.object) {
    return false;
  }
  return a.field == FieldLoc::kAnyField || b.field == FieldLoc::kAnyField ||
         a.field == b.field;
}

FieldSensitiveAnalysis::FieldSensitiveAnalysis(const MirModule& module) {
  ConstraintProgram program = BuildConstraintProgram(module, FieldMode::kSensitive);
  solution_ = SolveWave(module, program);
  layout_ = std::move(program.layout);
}

const SparseBitmap& FieldSensitiveAnalysis::Solution(int32_t reg) const {
  if (reg < 0 || static_cast<size_t>(reg) >= solution_.rep.size()) {
    return empty_;
  }
  return solution_.pts[solution_.rep[reg]];
}

std::vector<FieldLoc> FieldSensitiveAnalysis::PointsTo(int32_t reg) const {
  std::vector<FieldLoc> locs;
  Solution(reg).ForEach([&](uint32_t location) {
    locs.push_back({layout_.ObjectOf(location), layout_.FieldOf(location)});
  });
  return locs;  // Location ids ascend in (object, field) order.
}

void FieldSensitiveAnalysis::AddAliases(int32_t reg, SparseBitmap* mask) const {
  Solution(reg).ForEach([&](uint32_t location) {
    const int32_t object = layout_.ObjectOf(location);
    if (layout_.FieldOf(location) == FieldLoc::kAnyField) {
      AddObject(object, mask);
    } else {
      mask->Insert(location);
      mask->Insert(layout_.Location(object, LocationLayout::kAnySlot));
    }
  });
}

void FieldSensitiveAnalysis::AddObject(int32_t object, SparseBitmap* mask) const {
  for (int32_t slot = 0; slot < layout_.slots_per_object; ++slot) {
    mask->Insert(layout_.Location(object, slot));
  }
}

bool FieldSensitiveAnalysis::MayPointInto(int32_t reg, const SparseBitmap& mask) const {
  return Solution(reg).Intersects(mask);
}

bool FieldSensitiveAnalysis::MayAlias(int32_t reg_a, int32_t reg_b) const {
  SparseBitmap mask;
  AddAliases(reg_a, &mask);
  return MayPointInto(reg_b, mask);
}

}  // namespace mvee
