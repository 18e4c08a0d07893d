// AgentFleet: owns the shared agent runtimes and hands out the per-variant
// agent handles. The MVEE creates one fleet per run and "injects" an agent
// into each variant (the paper's LD_PRELOAD injection, §4.5, collapses here
// to wiring the agent into the variant's thread-local sync context).
//
// One shape (docs/DESIGN.md §11): every recording fleet keeps all four
// runtimes alive at once — total-order, partial-order, and the clock engine
// twice, once per address->clock map (wall-of-clocks, per-variable-order) —
// with lazy recording rings keeping the idle ones affordable. Every variant
// gets a dispatch agent that routes each sync op through the
// VariableAgentMap to the runtime its variable is assigned to. Routes are
// seeded from an AgentAssignmentPlan (the analysis layer's verdicts),
// re-pointed at runtime by a sampling controller thread (promotion on
// contention, demotion on confinement) or explicitly via ForceMigrate.
// Unbound variables ride the default route (= `kind`). A kNull fleet is the
// paper's no-agent configuration: no runtimes, and every variant gets a
// NullAgent.

#ifndef MVEE_AGENTS_AGENT_FLEET_H_
#define MVEE_AGENTS_AGENT_FLEET_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/clock_agent.h"
#include "mvee/agents/partial_order.h"
#include "mvee/agents/sync_agent.h"
#include "mvee/agents/total_order.h"
#include "mvee/agents/variable_map.h"

namespace mvee {

class AgentFleet {
 public:
  // `plan` (optional) seeds per-variable routes; ignored for kNull. The
  // plan's entries are registered at construction.
  AgentFleet(AgentKind kind, const AgentConfig& config, AgentControl control,
             const AgentAssignmentPlan* plan = nullptr);
  ~AgentFleet();

  AgentFleet(const AgentFleet&) = delete;
  AgentFleet& operator=(const AgentFleet&) = delete;

  // Creates the agent for `variant_index` (0 = master). For kNull every
  // variant gets its own NullAgent.
  std::unique_ptr<SyncAgent> CreateAgent(uint32_t variant_index);

  // Excision (docs/DESIGN.md §9): detach `variant`'s replay cursors from
  // every live runtime's recording rings, and drop it from migration drains.
  // No-op for kNull and for the master itself.
  void DetachVariant(uint32_t variant);

  AgentKind kind() const { return kind_; }

  // Aggregated recorder/replayer statistics summed over every live runtime
  // (zeros for kNull).
  AgentStatsSnapshot StatsSnapshot() const;

  // ---- Routing API (inert for a kNull fleet) ----

  // Current route of `name`; the default route's kind for "" or names that
  // were never registered.
  AgentKind RouteOf(const std::string& name) const;

  // Moves `name`'s route ("" = the default route shared by all unbound
  // variables) to `to` through the epoch handshake. Returns true iff the
  // flip completed (false: unknown name, already there, timeout-abort, or
  // kNull fleet).
  bool ForceMigrate(const std::string& name, AgentKind to);

  uint64_t MigrationsCompleted() const;
  uint64_t MigrationsAborted() const;
  // Distinct variables with their own (non-default) route entry.
  uint64_t BoundVariables() const;

  // Exposed for the no-allocation/lazy-rings tests.
  const VariableAgentMap* map() const { return map_.get(); }
  uint64_t RecordingRingsCreated() const;

 private:
  friend class DispatchAgent;

  // Registers (or finds) the route entry for `name` and binds `addr` to it
  // in `variant`'s address table. Called from DispatchAgent::BindVariable.
  void BindVariable(uint32_t variant, const char* name, const void* addr);

  SyncAgent* SubAgent(uint32_t variant, AgentKind kind) const;
  void ControllerLoop();

  const AgentKind kind_;
  AgentConfig config_;
  AgentControl control_;
  std::unique_ptr<TotalOrderRuntime> total_order_;
  std::unique_ptr<PartialOrderRuntime> partial_order_;
  std::unique_ptr<ClockRuntime> wall_of_clocks_;
  std::unique_ptr<ClockRuntime> per_variable_;
  // Routing state (null/empty for a kNull fleet).
  std::unique_ptr<VariableAgentMap> map_;
  // sub_agents_[variant][kind]: the per-variant handle of each runtime the
  // dispatch agent can route to (kNull slot stays empty — a kNull route
  // skips the sub-agent call entirely). Created once in CreateAgent.
  std::vector<std::array<std::unique_ptr<SyncAgent>, 5>> sub_agents_;
  std::thread controller_;
  std::atomic<bool> stop_controller_{false};
};

}  // namespace mvee

#endif  // MVEE_AGENTS_AGENT_FLEET_H_
