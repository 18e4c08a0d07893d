// Test oracle: the textbook Andersen worklist over std::set<FieldLoc>.
//
// Deliberately naive and independent of the production solver: it reads the
// MIR directly (no ConstraintProgram, no location encoding, no bitmaps, no
// cycle collapse), pops one register at a time and re-pushes its whole set
// along every edge until nothing changes. The differential tests in
// analysis_test.cc hold the wave solver to it per register, in both field
// modes:
//
//   gep_as_copy = true    kGep is a copy, so every location stays field 0:
//                         the field-insensitive AndersenAnalysis solution.
//   gep_as_copy = false   kGep selects a field with the smear rules of
//                         constraints.h: the FieldSensitiveAnalysis solution.

#ifndef MVEE_TESTS_ANDERSEN_ORACLE_H_
#define MVEE_TESTS_ANDERSEN_ORACLE_H_

#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "mvee/analysis/field_sensitive.h"
#include "mvee/analysis/mir.h"

namespace mvee::oracle {

struct OracleSolution {
  std::vector<std::set<FieldLoc>> points_to;  // Per register.

  std::vector<FieldLoc> Locs(int32_t reg) const {
    return {points_to[reg].begin(), points_to[reg].end()};
  }
  // Distinct objects of reg's locations, ascending.
  std::vector<int32_t> Objects(int32_t reg) const {
    std::set<int32_t> objects;
    for (const FieldLoc& loc : points_to[reg]) {
      objects.insert(loc.object);
    }
    return {objects.begin(), objects.end()};
  }
};

inline OracleSolution SolveOracle(const MirModule& module, bool gep_as_copy) {
  const auto n = static_cast<size_t>(module.register_count);
  OracleSolution solution;
  auto& pts = solution.points_to;
  pts.resize(n);
  std::vector<std::vector<int32_t>> copy_targets(n);
  std::vector<std::vector<std::pair<int32_t, int32_t>>> gep_targets(n);  // (dst, field)
  struct CallSite {
    const MirInst* inst;
    std::set<int32_t> bound;  // Callees already bound at this site.
  };
  std::vector<std::vector<CallSite>> calls_through(n);
  std::deque<int32_t> worklist;

  const auto valid = [&](int32_t reg) { return reg >= 0 && static_cast<size_t>(reg) < n; };
  const auto add_copy = [&](int32_t dst, int32_t src) {
    if (valid(dst) && valid(src) && dst != src) {
      copy_targets[src].push_back(dst);
      worklist.push_back(src);
    }
  };
  const auto bind_call = [&](int32_t callee, const MirInst& site) {
    if (callee < 0 || static_cast<size_t>(callee) >= module.functions.size()) {
      return;
    }
    const MirFunction& function = module.functions[callee];
    for (size_t i = 0; i < site.args.size() && i < function.params.size(); ++i) {
      add_copy(function.params[i], site.args[i]);
    }
    if (site.dst >= 0 && function.return_reg >= 0) {
      add_copy(site.dst, function.return_reg);
    }
  };

  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      switch (inst.op) {
        case MirOp::kAddrOf:
        case MirOp::kAlloc:
          if (valid(inst.dst) && inst.object >= 0) {
            pts[inst.dst].insert({inst.object, 0});
            worklist.push_back(inst.dst);
          }
          break;
        case MirOp::kMov:
          add_copy(inst.dst, inst.src);
          break;
        case MirOp::kGep:
          if (gep_as_copy) {
            add_copy(inst.dst, inst.src);
          } else if (valid(inst.dst) && valid(inst.src)) {
            gep_targets[inst.src].emplace_back(inst.dst, inst.field);
            worklist.push_back(inst.src);
          }
          break;
        case MirOp::kCall:
          if (inst.object >= 0 && static_cast<size_t>(inst.object) < module.objects.size()) {
            bind_call(module.objects[inst.object].function_index, inst);
          }
          break;
        case MirOp::kIndirectCall:
          if (valid(inst.ptr)) {
            calls_through[inst.ptr].push_back({&inst, {}});
            worklist.push_back(inst.ptr);
          }
          break;
        default:
          break;
      }
    }
  }

  while (!worklist.empty()) {
    const int32_t reg = worklist.front();
    worklist.pop_front();
    for (int32_t target : copy_targets[reg]) {
      bool changed = false;
      for (const FieldLoc& loc : pts[reg]) {
        changed |= pts[target].insert(loc).second;
      }
      if (changed) {
        worklist.push_back(target);
      }
    }
    for (const auto& [target, field] : gep_targets[reg]) {
      bool changed = false;
      for (const FieldLoc& loc : pts[reg]) {
        // Only a select off the object's base keeps a field; opaque
        // arithmetic, arithmetic on a smeared pointer and field-of-field
        // give the any-field wildcard.
        const int32_t derived = loc.field == 0 && field >= 0 ? field : FieldLoc::kAnyField;
        changed |= pts[target].insert({loc.object, derived}).second;
      }
      if (changed) {
        worklist.push_back(target);
      }
    }
    // On-the-fly call graph: a function object reaching pts(reg) at any
    // field binds that function at every site calling through reg.
    for (CallSite& site : calls_through[reg]) {
      for (const FieldLoc& loc : pts[reg]) {
        if (static_cast<size_t>(loc.object) >= module.objects.size()) {
          continue;
        }
        const int32_t callee = module.objects[loc.object].function_index;
        if (callee >= 0 && site.bound.insert(callee).second) {
          bind_call(callee, *site.inst);
        }
      }
    }
  }
  return solution;
}

}  // namespace mvee::oracle

#endif  // MVEE_TESTS_ANDERSEN_ORACLE_H_
