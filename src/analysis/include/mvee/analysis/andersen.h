// Andersen-style subset-based points-to analysis over MIR.
//
// The paper's second automation attempt used SVF, "an Andersen-style,
// subset-based points-to analysis" (§4.3.1), noting it keeps more precision
// than Steensgaard's unification but is costlier. Cost is why the paper
// abandoned it at production scale; this class solves the field-insensitive
// ConstraintProgram (constraints.h) — AddrOf, copy, and interprocedural
// parameter/return flow, with indirect-call targets resolved on the fly from
// the growing solution — on the wave-propagation engine (wave_solver.h):
// sparse bitmaps, difference propagation, online cycle collapse. The
// differential tests in tests/analysis_test.cc hold it to the textbook
// worklist oracle (tests/andersen_oracle.h) per register.
//
// The directionality is what distinguishes it from Steensgaard: `p = &x;
// p = &y; q = &y` does NOT force x into pts(q). The analysis bench compares
// the two on precision (spurious type-(iii) marks) and run time.

#ifndef MVEE_ANALYSIS_ANDERSEN_H_
#define MVEE_ANALYSIS_ANDERSEN_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "mvee/analysis/mir.h"
#include "mvee/analysis/sparse_bitmap.h"
#include "mvee/analysis/stats.h"

namespace mvee {

class AndersenAnalysis {
 public:
  explicit AndersenAnalysis(const MirModule& module);

  // The set of object indices pointer register `reg` may point to,
  // materialized. Convenient for tests; hot paths should use ForEachPointee
  // or PointsToObject, which query the bitmap solution directly.
  std::set<int32_t> PointsTo(int32_t reg) const;

  // Sorted pointee ids — the differential tests' comparison form.
  std::vector<int32_t> PointsToSorted(int32_t reg) const;

  template <typename Fn>
  void ForEachPointee(int32_t reg, Fn fn) const {
    if (reg >= 0 && static_cast<size_t>(reg) < rep_.size()) {
      pts_[rep_[reg]].ForEach([&](uint32_t object) { fn(static_cast<int32_t>(object)); });
    }
  }

  bool PointsToObject(int32_t reg, int32_t object) const;
  bool MayAlias(int32_t reg_a, int32_t reg_b) const;
  // True if `reg` may point to any object in `objects`. Probes the bitmap
  // per candidate — no set materialization.
  bool MayPointInto(int32_t reg, const std::set<int32_t>& objects) const;

  const AnalysisStats& stats() const { return stats_; }

 private:
  // rep_[r] names the constraint node holding r's solution — the wave
  // engine collapses cycle members onto one node.
  std::vector<int32_t> rep_;
  std::vector<SparseBitmap> pts_;
  AnalysisStats stats_;
};

// All call-induced def-use copy pairs (dst, src): direct calls resolved
// statically, indirect calls from the points-to fixpoint. The _Atomic
// qualifier propagation (atomic_check.cc) walks these like Mov edges.
std::vector<std::pair<int32_t, int32_t>> ResolveCallCopies(const MirModule& module);

}  // namespace mvee

#endif  // MVEE_ANALYSIS_ANDERSEN_H_
