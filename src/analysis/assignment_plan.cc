#include "mvee/analysis/assignment_plan.h"

#include <map>
#include <set>
#include <sstream>

#include "mvee/analysis/andersen.h"

namespace mvee {

namespace {

bool IsMemoryOp(MirOp op) {
  switch (op) {
    case MirOp::kLockRmw:
    case MirOp::kXchg:
    case MirOp::kLoad:
    case MirOp::kStore:
    case MirOp::kAsmBlock:
      return true;
    default:
      return false;
  }
}

bool IsRmwOp(MirOp op) { return op == MirOp::kLockRmw || op == MirOp::kXchg; }

// Accumulated static evidence about one sync object.
struct ObjectFacts {
  size_t sites = 0;
  size_t rmw_sites = 0;
  std::set<std::string> functions;
  bool aliased = false;
};

}  // namespace

const char* AssignmentVerdictName(AssignmentVerdict verdict) {
  switch (verdict) {
    case AssignmentVerdict::kThreadLocal:
      return "thread-local";
    case AssignmentVerdict::kUncontendedShared:
      return "uncontended-shared";
    case AssignmentVerdict::kSharedHot:
      return "shared-hot";
    case AssignmentVerdict::kAmbiguouslyAliased:
      return "ambiguously-aliased";
  }
  return "?";
}

AssignmentPlanReport DeriveAssignmentPlan(const MirModule& module, const SyncOpReport& report,
                                          const AssignmentPlanOptions& options) {
  AndersenAnalysis points_to(module);
  std::map<int32_t, ObjectFacts> facts;

  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      if (!IsMemoryOp(inst.op) || inst.ptr < 0) {
        continue;
      }
      // A site is ambiguous when its pointer may reach more than one sync
      // object: the slave cannot tell from the master's per-variable clock
      // which of the candidates the master actually serialized on. Two
      // bitmap walks — no materialized std::set per site.
      size_t sync_targets = 0;
      points_to.ForEachPointee(inst.ptr, [&](int32_t target) {
        if (report.sync_objects.count(target) != 0) {
          ++sync_targets;
        }
      });
      if (sync_targets == 0) {
        continue;
      }
      points_to.ForEachPointee(inst.ptr, [&](int32_t target) {
        if (report.sync_objects.count(target) == 0) {
          return;
        }
        ObjectFacts& object_facts = facts[target];
        ++object_facts.sites;
        if (IsRmwOp(inst.op)) {
          ++object_facts.rmw_sites;
        }
        object_facts.functions.insert(function.name);
        if (sync_targets >= 2) {
          object_facts.aliased = true;
        }
      });
    }
  }

  AssignmentPlanReport result;
  for (int32_t object : report.sync_objects) {
    if (object < 0 || static_cast<size_t>(object) >= module.objects.size()) {
      continue;
    }
    const MirObject& mir_object = module.objects[object];
    const ObjectFacts& object_facts = facts[object];

    VariableAssignment assignment;
    assignment.name = mir_object.name;
    assignment.object = object;
    assignment.sites = object_facts.sites;
    assignment.rmw_sites = object_facts.rmw_sites;
    assignment.touching_functions = object_facts.functions.size();
    assignment.aliased = object_facts.aliased;

    if (object_facts.aliased) {
      assignment.verdict = AssignmentVerdict::kAmbiguouslyAliased;
      assignment.kind = AgentKind::kPartialOrder;
    } else if (mir_object.storage != MirStorage::kGlobal && object_facts.functions.size() <= 1) {
      assignment.verdict = AssignmentVerdict::kThreadLocal;
      assignment.kind =
          options.allow_null_routes ? AgentKind::kNull : AgentKind::kPerVariableOrder;
    } else if (object_facts.rmw_sites >= 2 && object_facts.functions.size() >= 2) {
      assignment.verdict = AssignmentVerdict::kSharedHot;
      assignment.kind = AgentKind::kTotalOrder;
    } else {
      assignment.verdict = AssignmentVerdict::kUncontendedShared;
      assignment.kind = AgentKind::kPerVariableOrder;
    }

    result.plan.assignments.push_back(
        {assignment.name, assignment.kind, AssignmentVerdictName(assignment.verdict)});
    result.variables.push_back(std::move(assignment));
  }
  return result;
}

std::string FormatAssignmentPlan(const AssignmentPlanReport& report) {
  std::ostringstream out;
  for (const auto& variable : report.variables) {
    out << variable.name << " " << AssignmentVerdictName(variable.verdict) << " -> "
        << AgentKindName(variable.kind) << " (sites=" << variable.sites
        << " rmw=" << variable.rmw_sites << " fns=" << variable.touching_functions << ")\n";
  }
  return out.str();
}

}  // namespace mvee
