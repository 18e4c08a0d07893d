#include "mvee/agents/agent_fleet.h"

#include <chrono>

#include "mvee/util/variant_killed.h"

namespace mvee {

// The per-variant dispatch handle: resolves the op's route entry, passes the
// master/slave migration gate, and forwards to the routed runtime's own
// agent for this variant. A kNull route skips the forward entirely — the
// honest win for statically-proven thread-local variables — but still runs
// the gates, so the per-thread op counters stay exact and a later migration
// off kNull remains sound (the new agent starts from a drained, counted
// state; there is no recorded backlog to replay because kNull records
// nothing and slaves never waited on it).
class DispatchAgent final : public SyncAgent {
 public:
  DispatchAgent(AgentFleet* fleet, uint32_t variant)
      : fleet_(fleet),
        variant_(variant),
        role_(variant == 0 ? AgentRole::kMaster : AgentRole::kSlave),
        pending_(fleet->config_.max_threads) {}

  void BeforeSyncOp(uint32_t tid, const void* addr) override {
    if (fleet_->control_.aborted() && AlreadyUnwinding()) {
      return;  // Teardown: no second throw from destructor-driven sync ops.
    }
    CheckTidBound(tid, fleet_->config_.max_threads, fleet_->control_, name());
    VariableAgentMap* map = fleet_->map_.get();
    VariableAgentMap::Entry* entry = map->Find(variant_, addr);
    const AgentKind kind = role_ == AgentRole::kMaster
                               ? map->MasterEnter(entry, tid)
                               : map->SlaveEnter(entry, variant_, tid);
    pending_[tid] = Pending{entry, kind};
    if (SyncAgent* sub = fleet_->SubAgent(variant_, kind)) {
      try {
        sub->BeforeSyncOp(tid, addr);
      } catch (...) {
        if (role_ == AgentRole::kMaster) {
          map->MasterCancel(entry, tid);
        }
        throw;
      }
    }
  }

  void AfterSyncOp(uint32_t tid, const void* addr) override {
    if (fleet_->control_.aborted() && AlreadyUnwinding()) {
      return;
    }
    VariableAgentMap* map = fleet_->map_.get();
    const Pending pending = pending_[tid];
    if (SyncAgent* sub = fleet_->SubAgent(variant_, pending.kind)) {
      try {
        sub->AfterSyncOp(tid, addr);
      } catch (...) {
        if (role_ == AgentRole::kMaster) {
          map->MasterCancel(pending.entry, tid);
        }
        throw;
      }
    }
    if (role_ == AgentRole::kMaster) {
      map->MasterExit(pending.entry, tid);
    } else {
      map->SlaveExit(pending.entry, variant_, tid);
    }
  }

  void BindVariable(const char* name, const void* addr) override {
    fleet_->BindVariable(variant_, name, addr);
  }

  AgentRole role() const override { return role_; }
  const char* name() const override { return "adaptive-dispatch"; }

 private:
  struct Pending {
    VariableAgentMap::Entry* entry = nullptr;
    AgentKind kind = AgentKind::kNull;
  };

  AgentFleet* const fleet_;
  const uint32_t variant_;
  const AgentRole role_;
  // One pending op per thread, owned exclusively by that thread.
  std::vector<Pending> pending_;
};

AgentFleet::AgentFleet(AgentKind kind, const AgentConfig& config, AgentControl control,
                       const AgentAssignmentPlan* plan)
    : kind_(kind), config_(ValidatedAgentConfig(config)), control_(std::move(control)) {
  if (kind_ == AgentKind::kNull) {
    return;  // The paper's no-agent configuration: nothing to record or route.
  }
  // All four runtimes stay alive so any route is instantly serviceable; the
  // lazy recording rings (record_shards.h) keep the idle ones nearly free.
  // Per-runtime stats are summed on read.
  total_order_ = std::make_unique<TotalOrderRuntime>(config_, control_);
  partial_order_ = std::make_unique<PartialOrderRuntime>(config_, control_);
  wall_of_clocks_ = std::make_unique<ClockRuntime>(AgentKind::kWallOfClocks, config_, control_);
  per_variable_ =
      std::make_unique<ClockRuntime>(AgentKind::kPerVariableOrder, config_, control_);
  map_ = std::make_unique<VariableAgentMap>(config_, kind_, control_);
  sub_agents_.resize(config_.num_variants);
  if (plan != nullptr) {
    for (const AgentAssignment& assignment : plan->assignments) {
      // Registration can fail closed past kMaxEntries; the variable then
      // simply rides the default route.
      map_->EntryFor(assignment.name, assignment.kind);
    }
  }
  if (config_.migrate_interval_ms > 0 && config_.num_variants > 1) {
    controller_ = std::thread([this] { ControllerLoop(); });
  }
}

AgentFleet::~AgentFleet() {
  stop_controller_.store(true, std::memory_order_release);
  if (controller_.joinable()) {
    controller_.join();
  }
}

std::unique_ptr<SyncAgent> AgentFleet::CreateAgent(uint32_t variant_index) {
  if (map_ == nullptr) {
    return std::make_unique<NullAgent>();
  }
  // Bootstrap (one call per variant, from the monitor): materialize this
  // variant's handle in every runtime so the dispatch hot path is a plain
  // array index.
  auto& subs = sub_agents_[variant_index];
  subs[static_cast<size_t>(AgentKind::kTotalOrder)] = total_order_->CreateAgent(variant_index);
  subs[static_cast<size_t>(AgentKind::kPartialOrder)] = partial_order_->CreateAgent(variant_index);
  subs[static_cast<size_t>(AgentKind::kWallOfClocks)] =
      wall_of_clocks_->CreateAgent(variant_index);
  subs[static_cast<size_t>(AgentKind::kPerVariableOrder)] =
      per_variable_->CreateAgent(variant_index);
  return std::make_unique<DispatchAgent>(this, variant_index);
}

SyncAgent* AgentFleet::SubAgent(uint32_t variant, AgentKind kind) const {
  return sub_agents_[variant][static_cast<size_t>(kind)].get();
}

void AgentFleet::DetachVariant(uint32_t variant) {
  if (map_ == nullptr) {
    return;
  }
  total_order_->DetachVariant(variant);
  partial_order_->DetachVariant(variant);
  wall_of_clocks_->DetachVariant(variant);
  per_variable_->DetachVariant(variant);
  map_->DetachVariant(variant);
}

AgentStatsSnapshot AgentFleet::StatsSnapshot() const {
  AgentStatsSnapshot total;
  auto add = [&total](const AgentStats& stats) {
    const AgentStatsSnapshot part = stats.Aggregate();
    total.ops_recorded += part.ops_recorded;
    total.ops_replayed += part.ops_replayed;
    total.record_stalls += part.record_stalls;
    total.replay_stalls += part.replay_stalls;
    total.record_lock_spins += part.record_lock_spins;
  };
  if (map_ != nullptr) {
    add(total_order_->stats());
    add(partial_order_->stats());
    add(wall_of_clocks_->stats());
    add(per_variable_->stats());
  }
  return total;
}

void AgentFleet::BindVariable(uint32_t variant, const char* name, const void* addr) {
  if (name == nullptr) {
    return;
  }
  // Names absent from the plan default to the fleet's own kind — binding is
  // then pure identity registration, and only the runtime controller (or
  // ForceMigrate) moves the variable somewhere cheaper.
  VariableAgentMap::Entry* entry = map_->EntryFor(name, kind_);
  if (entry != nullptr) {
    map_->Bind(variant, addr, entry);
  }
}

AgentKind AgentFleet::RouteOf(const std::string& name) const {
  if (map_ == nullptr) {
    return kind_;
  }
  VariableAgentMap::Entry* entry =
      name.empty() ? const_cast<VariableAgentMap*>(map_.get())->DefaultEntry()
                   : map_->FindByName(name);
  if (entry == nullptr) {
    return kind_;
  }
  return VariableAgentMap::RouteKind(entry->route.load(std::memory_order_acquire));
}

bool AgentFleet::ForceMigrate(const std::string& name, AgentKind to) {
  if (map_ == nullptr) {
    return false;
  }
  VariableAgentMap::Entry* entry =
      name.empty() ? map_->DefaultEntry() : map_->FindByName(name);
  if (entry == nullptr) {
    return false;
  }
  return map_->Migrate(entry, to);
}

uint64_t AgentFleet::MigrationsCompleted() const {
  return map_ ? map_->MigrationsCompleted() : 0;
}

uint64_t AgentFleet::MigrationsAborted() const {
  return map_ ? map_->MigrationsAborted() : 0;
}

uint64_t AgentFleet::BoundVariables() const { return map_ ? map_->EntryCount() : 0; }

uint64_t AgentFleet::RecordingRingsCreated() const {
  if (map_ == nullptr) {
    return 0;
  }
  return total_order_->RecordingRingsCreated() + partial_order_->RecordingRingsCreated() +
         wall_of_clocks_->RecordingRingsCreated() + per_variable_->RecordingRingsCreated();
}

void AgentFleet::ControllerLoop() {
  // Per-entry, per-tid snapshots of the recorded counters from the previous
  // sample, so each interval's delta and active-thread count are exact.
  std::vector<std::vector<uint64_t>> prev;
  const auto interval = std::chrono::milliseconds(config_.migrate_interval_ms);
  for (;;) {
    // Sleep in small slices so shutdown is prompt.
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (std::chrono::steady_clock::now() < deadline) {
      if (stop_controller_.load(std::memory_order_acquire) || control_.aborted()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const size_t count = map_->EntryCount();
    if (prev.size() < count) {
      prev.resize(count);
    }
    for (size_t i = 0; i < count; ++i) {
      VariableAgentMap::Entry* entry = map_->EntryAt(i);
      auto& last = prev[i];
      if (last.size() < config_.max_threads) {
        last.resize(config_.max_threads, 0);
      }
      uint64_t delta = 0;
      uint32_t active_tids = 0;
      for (uint32_t t = 0; t < config_.max_threads; ++t) {
        const uint64_t now = entry->recorded[t].value.load(std::memory_order_relaxed);
        if (now > last[t]) {
          ++active_tids;
          delta += now - last[t];
        }
        last[t] = now;
      }
      if (delta < config_.migrate_min_ops) {
        continue;  // Cold: stay parked wherever the plan put it.
      }
      const AgentKind current =
          VariableAgentMap::RouteKind(entry->route.load(std::memory_order_acquire));
      if (current == AgentKind::kNull) {
        // kNull came from a static thread-locality proof (or an explicit
        // ForceMigrate); observed op counts say nothing against that proof,
        // so the sampling policy never second-guesses it.
        continue;
      }
      // Promotion: a variable multiple threads hammer within one interval is
      // the paper's TO-worthy case — per-variable clock ping-pong (WoC/PVO)
      // costs more than the strict order. Demotion: single-threaded traffic
      // on a strict-order route pays TO's cross-variable stalls for nothing;
      // a per-variable clock is the cheap sound choice.
      if (active_tids >= 2 && (current == AgentKind::kWallOfClocks ||
                               current == AgentKind::kPerVariableOrder)) {
        map_->Migrate(entry, AgentKind::kTotalOrder);
      } else if (active_tids <= 1 && (current == AgentKind::kTotalOrder ||
                                      current == AgentKind::kPartialOrder)) {
        map_->Migrate(entry, AgentKind::kPerVariableOrder);
      }
    }
  }
}

}  // namespace mvee
