// Wave-propagation Andersen solver (Hardekopf & Lin, "The Ant and the
// Grasshopper", adapted) — the one inclusion-based points-to engine.
//
// The textbook solver pops one register at a time and re-inserts its whole
// points-to set into every successor — on copy cycles (mutually recursive
// parameter passing, function-pointer rings) it re-propagates the same
// elements around the cycle once per element, and every insert is a
// std::set tree walk. This engine removes all three costs:
//
//   * sparse bitmaps (sparse_bitmap.h): word-parallel set union, ~64x less
//     memory per element than std::set nodes;
//   * difference propagation: each node remembers the frontier it already
//     pushed (prev_pts); a wave only moves pts - prev_pts along edges, so an
//     unchanged set costs one merge scan, not |set| inserts;
//   * online cycle detection: before every wave, Tarjan SCCs over the
//     current copy graph collapse cycles into single nodes (union-find), so
//     a K-node parameter ring propagates once instead of K times per
//     element; the condensation is then processed in topological order, so
//     one wave reaches the fixpoint for a fixed graph.
//
// Bits are abstract locations (constraints.h's LocationLayout): object ids
// in field-insensitive mode, dense (object, field) ids in field-sensitive
// mode. Field selects are not copies, so they never join an SCC: each
// wave applies them to its source's delta, and a select that feeds a node
// the wave already passed costs one more wave. Indirect calls are the
// graph-growing constraint (MIR has no load/store-deref pointer flow):
// after every wave, new function objects in pts(fptr) resolve to new
// parameter/return copy edges, and the loop repeats — the classic
// on-the-fly call-graph / points-to fixpoint. The differential tests in
// tests/analysis_test.cc hold the solution to the textbook oracle
// (tests/andersen_oracle.h) per register in both modes.

#ifndef MVEE_ANALYSIS_WAVE_SOLVER_H_
#define MVEE_ANALYSIS_WAVE_SOLVER_H_

#include <cstdint>
#include <vector>

#include "mvee/analysis/constraints.h"
#include "mvee/analysis/sparse_bitmap.h"
#include "mvee/analysis/stats.h"

namespace mvee {

struct WaveSolution {
  // rep[r] is the constraint node register r was collapsed into; the node's
  // points-to set is pts[rep[r]]. Cycle members share one bitmap — part of
  // the memory win.
  std::vector<int32_t> rep;
  std::vector<SparseBitmap> pts;
  AnalysisStats stats;
};

WaveSolution SolveWave(const MirModule& module, const ConstraintProgram& program);

}  // namespace mvee

#endif  // MVEE_ANALYSIS_WAVE_SOLVER_H_
