// Static agent-assignment plan extraction (docs/DESIGN.md §11).
//
// This closes the loop ROADMAP item 3 calls for: the sync-op identification
// pipeline (§4.3, syncop_analysis.h) finds WHICH objects are sync variables;
// this pass decides which replication agent each of them should START on,
// from the same points-to facts — the SFIP-style pattern of ahead-of-time
// analysis feeding a cheap runtime mechanism. The derived AgentAssignmentPlan
// seeds AgentFleet's VariableAgentMap; the runtime controller then corrects
// any verdict the static model got wrong.
//
// Verdict ladder (first match wins), per sync object:
//   kAmbiguouslyAliased — some touching site may also touch ANOTHER sync
//       object (points-to sets overlap). Per-variable clocks keyed on the
//       master address would let the slave observe a different interleaving
//       than the master serialized; a strict-order agent (PO) is the sound
//       choice.
//   kThreadLocal — non-global storage whose every touching site sits in one
//       function: the MIR model's proxy for thread confinement (MIR has no
//       thread-creation edges; a stack/heap object used by a single function
//       is the analogue of an object that never escapes its creating
//       thread). Ordering it buys nothing — route kNull, record nothing.
//   kSharedHot — several RMW sites across several functions: the classic
//       hot lock/counter shape where WoC/PVO clock ping-pong costs more
//       than a strict order. Route kTotalOrder.
//   kUncontendedShared — everything else: genuinely shared but with no
//       static evidence of contention. Route kPerVariableOrder (private
//       clock, no false conflicts).

#ifndef MVEE_ANALYSIS_ASSIGNMENT_PLAN_H_
#define MVEE_ANALYSIS_ASSIGNMENT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mvee/agents/variable_map.h"
#include "mvee/analysis/mir.h"
#include "mvee/analysis/syncop_analysis.h"

namespace mvee {

enum class AssignmentVerdict : uint8_t {
  kThreadLocal = 0,
  kUncontendedShared,
  kSharedHot,
  kAmbiguouslyAliased,
};

const char* AssignmentVerdictName(AssignmentVerdict verdict);

// Per-sync-variable derivation result (the explainable row; the plan entry
// is its distilled (name, kind) pair).
struct VariableAssignment {
  std::string name;
  int32_t object = -1;
  AssignmentVerdict verdict = AssignmentVerdict::kUncontendedShared;
  AgentKind kind = AgentKind::kPerVariableOrder;
  size_t sites = 0;           // Touching memory-op sites.
  size_t rmw_sites = 0;       // ...of which LOCK-RMW / XCHG.
  size_t touching_functions = 0;
  bool aliased = false;
};

struct AssignmentPlanReport {
  std::vector<VariableAssignment> variables;
  // The distilled plan AgentFleet consumes.
  AgentAssignmentPlan plan;
};

struct AssignmentPlanOptions {
  // kNull routes skip record/replay entirely — the payoff of a thread-local
  // verdict, but also the most trust placed in the static model. Off maps
  // kThreadLocal to kPerVariableOrder instead (sound under any verdict).
  bool allow_null_routes = true;
};

// Derives the plan from `module` using the Andersen points-to (the precise
// one — plan quality is exactly a precision question, §4.3.1) and the
// sync-variable set in `report` (produced by IdentifySyncOps*; pass the
// report whose precision you trust).
AssignmentPlanReport DeriveAssignmentPlan(const MirModule& module, const SyncOpReport& report,
                                          const AssignmentPlanOptions& options = {});

// Formats the report for logs: one "name verdict -> agent (sites/rmw/fns)"
// line per variable.
std::string FormatAssignmentPlan(const AssignmentPlanReport& report);

}  // namespace mvee

#endif  // MVEE_ANALYSIS_ASSIGNMENT_PLAN_H_
