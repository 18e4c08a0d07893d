#include "mvee/analysis/andersen.h"

#include <utility>

#include "mvee/analysis/constraints.h"
#include "mvee/analysis/wave_solver.h"

namespace mvee {

AndersenAnalysis::AndersenAnalysis(const MirModule& module) {
  WaveSolution solution =
      SolveWave(module, BuildConstraintProgram(module, FieldMode::kInsensitive));
  rep_ = std::move(solution.rep);
  pts_ = std::move(solution.pts);
  stats_ = std::move(solution.stats);
}

std::set<int32_t> AndersenAnalysis::PointsTo(int32_t reg) const {
  std::set<int32_t> result;
  ForEachPointee(reg, [&](int32_t object) { result.insert(result.end(), object); });
  return result;
}

std::vector<int32_t> AndersenAnalysis::PointsToSorted(int32_t reg) const {
  std::vector<int32_t> result;
  ForEachPointee(reg, [&](int32_t object) { result.push_back(object); });
  return result;  // ForEach yields ascending ids already.
}

bool AndersenAnalysis::PointsToObject(int32_t reg, int32_t object) const {
  if (reg < 0 || static_cast<size_t>(reg) >= rep_.size() || object < 0) {
    return false;
  }
  return pts_[rep_[reg]].Test(static_cast<uint32_t>(object));
}

bool AndersenAnalysis::MayAlias(int32_t reg_a, int32_t reg_b) const {
  if (reg_a < 0 || static_cast<size_t>(reg_a) >= rep_.size() || reg_b < 0 ||
      static_cast<size_t>(reg_b) >= rep_.size()) {
    return false;
  }
  return pts_[rep_[reg_a]].Intersects(pts_[rep_[reg_b]]);
}

bool AndersenAnalysis::MayPointInto(int32_t reg, const std::set<int32_t>& objects) const {
  if (reg < 0 || static_cast<size_t>(reg) >= rep_.size()) {
    return false;
  }
  const SparseBitmap& pts = pts_[rep_[reg]];
  for (int32_t object : objects) {
    if (object >= 0 && pts.Test(static_cast<uint32_t>(object))) {
      return true;
    }
  }
  return false;
}

std::vector<std::pair<int32_t, int32_t>> ResolveCallCopies(const MirModule& module) {
  std::vector<std::pair<int32_t, int32_t>> copies;
  bool has_indirect = false;
  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      if (inst.op == MirOp::kIndirectCall) {
        has_indirect = true;
      } else if (inst.op == MirOp::kCall) {
        const int32_t callee = (inst.object >= 0 &&
                                static_cast<size_t>(inst.object) < module.objects.size())
                                   ? module.objects[inst.object].function_index
                                   : -1;
        AppendCallCopies(module, callee, inst.dst, inst.args, &copies);
      }
    }
  }
  if (!has_indirect) {
    return copies;
  }
  // Indirect callees come from the points-to fixpoint.
  const AndersenAnalysis points_to(module);
  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      if (inst.op != MirOp::kIndirectCall) {
        continue;
      }
      points_to.ForEachPointee(inst.ptr, [&](int32_t object) {
        const int32_t callee = module.objects[object].function_index;
        if (callee >= 0) {
          AppendCallCopies(module, callee, inst.dst, inst.args, &copies);
        }
      });
    }
  }
  return copies;
}

}  // namespace mvee
