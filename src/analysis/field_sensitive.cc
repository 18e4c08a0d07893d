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

SyncOpReport IdentifySyncOpsFieldSensitive(const MirModule& module,
                                           const SyncOpAnalysisOptions& options) {
  SyncOpReport report;
  report.module_name = module.name;

  FieldSensitiveAnalysis points_to(module);
  report.stats = points_to.stats();
  // Every location that may alias a sync-variable location.
  SparseBitmap sync_mask;

  // Stage 1: type (i)/(ii) instructions seed the sync-variable locations at
  // field granularity.
  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLockRmw && inst.op != MirOp::kXchg) {
        continue;
      }
      auto& bucket = inst.op == MirOp::kLockRmw ? report.type_i : report.type_ii;
      bucket.push_back({function.name, i, inst.source_line, inst.op});
      for (const FieldLoc& loc : points_to.PointsTo(inst.ptr)) {
        report.sync_objects.insert(loc.object);
      }
      points_to.AddAliases(inst.ptr, &sync_mask);
    }
  }

  // Volatile extension: a volatile qualifier covers the whole object.
  if (options.treat_volatile_as_sync) {
    for (size_t obj = 0; obj < module.objects.size(); ++obj) {
      if (module.objects[obj].is_volatile) {
        points_to.AddObject(static_cast<int32_t>(obj), &sync_mask);
        report.sync_objects.insert(static_cast<int32_t>(obj));
      }
    }
  }

  // Stage 2 at field granularity: a load/store of a *different field* of an
  // object whose refcount field is locked stays unmarked.
  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLoad && inst.op != MirOp::kStore) {
        continue;
      }
      if (points_to.MayPointInto(inst.ptr, sync_mask)) {
        report.type_iii.push_back({function.name, i, inst.source_line, inst.op});
      } else {
        ++report.unmarked_memops;
      }
    }
  }
  return report;
}

}  // namespace mvee
