#include "mvee/agents/variable_map.h"

#include <string>

#include "mvee/agents/record_shards.h"
#include "mvee/util/hash.h"
#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

namespace {

constexpr size_t kProbeLimit = 64;
// Address-table slots per possible entry. The tables stay this sparse (a
// plan binds one address per entry per variant) so probes terminate fast.
constexpr size_t kTableSlotsPerEntry = 8;

// 8-byte bucketing, same rationale as WoC/PVO (adjacent 32-bit halves of one
// 64-bit line are one sync variable); +1 keeps the null bucket distinct from
// the empty-slot sentinel 0.
uint64_t BucketKey(const void* addr) {
  return (reinterpret_cast<uint64_t>(addr) >> 3) + 1;
}

}  // namespace

VariableAgentMap::Entry::Entry(std::string entry_name, AgentKind kind,
                               const AgentConfig& config)
    : name(std::move(entry_name)),
      seeded_kind(kind),
      route(MakeRoute(kind, RouteState::kActive, 0)),
      inflight(config.max_threads),
      recorded(config.max_threads),
      replayed(config.num_variants > 0 ? config.num_variants - 1 : 0) {
  for (auto& per_variant : replayed) {
    per_variant = std::vector<PaddedCount>(config.max_threads);
  }
}

VariableAgentMap::VariableAgentMap(const AgentConfig& config, AgentKind default_kind,
                                   AgentControl control)
    : config_(ValidatedAgentConfig(config)),
      control_(std::move(control)),
      default_entry_(std::make_unique<Entry>("", default_kind, config_)) {
  size_t capacity = 2;
  while (capacity < kMaxEntries * kTableSlotsPerEntry) {
    capacity <<= 1;
  }
  table_mask_ = capacity - 1;
  tables_ = std::vector<Table>(config_.num_variants);
  for (auto& table : tables_) {
    table.keys = std::vector<std::atomic<uint64_t>>(capacity);
    table.values = std::vector<std::atomic<Entry*>>(capacity);
  }
}

VariableAgentMap::~VariableAgentMap() {
  const size_t count = entry_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    delete entries_[i].load(std::memory_order_relaxed);
  }
}

VariableAgentMap::Entry* VariableAgentMap::EntryFor(const std::string& name,
                                                    AgentKind kind) {
  std::lock_guard<std::mutex> lock(register_mutex_);
  const size_t count = entry_count_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < count; ++i) {
    Entry* entry = entries_[i].load(std::memory_order_relaxed);
    if (entry->name == name) {
      return entry;
    }
  }
  if (count >= kMaxEntries) {
    return nullptr;  // Fail closed: the variable keeps the default route.
  }
  auto* entry = new Entry(name, kind, config_);
  // Publish the pointer before the count: a lock-free reader that observes
  // the new count is guaranteed to see the pointer.
  entries_[count].store(entry, std::memory_order_release);
  entry_count_.store(count + 1, std::memory_order_release);
  return entry;
}

VariableAgentMap::Entry* VariableAgentMap::FindByName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(register_mutex_);
  const size_t count = entry_count_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < count; ++i) {
    Entry* entry = entries_[i].load(std::memory_order_relaxed);
    if (entry->name == name) {
      return entry;
    }
  }
  return nullptr;
}

bool VariableAgentMap::Bind(uint32_t variant, const void* addr, Entry* entry) {
  if (entry == nullptr || variant >= tables_.size()) {
    return false;
  }
  const uint64_t key = BucketKey(addr);
  std::lock_guard<std::mutex> lock(register_mutex_);
  Table& table = tables_[variant];
  // Keep the table at most half full so the hot-path probe below always
  // terminates well inside kProbeLimit.
  if (table.inserts >= (table_mask_ + 1) / 2) {
    return false;
  }
  uint64_t index = ClockAddressHash(key) & table_mask_;
  for (size_t probe = 0; probe < kProbeLimit; ++probe) {
    const uint64_t current = table.keys[index].load(std::memory_order_relaxed);
    if (current == key) {
      // Re-binding the same address: a no-op if it already routes here,
      // a refused bind otherwise (routes are append-only; migration, not
      // re-binding, changes where a variable goes).
      return table.values[index].load(std::memory_order_relaxed) == entry;
    }
    if (current == 0) {
      // Value first (relaxed), then the key with release: a reader that
      // acquires the key is guaranteed to see the value. All writers are
      // serialized by register_mutex_, so plain stores suffice.
      table.values[index].store(entry, std::memory_order_relaxed);
      table.keys[index].store(key, std::memory_order_release);
      ++table.inserts;
      return true;
    }
    index = (index + 1) & table_mask_;
  }
  return false;
}

VariableAgentMap::Entry* VariableAgentMap::Find(uint32_t variant, const void* addr) const {
  // Nothing bound anywhere (every op rides the default route): skip
  // the probe entirely.
  if (entry_count_.load(std::memory_order_acquire) == 0) {
    return default_entry_.get();
  }
  if (variant >= tables_.size()) {
    return default_entry_.get();
  }
  const uint64_t key = BucketKey(addr);
  const Table& table = tables_[variant];
  uint64_t index = ClockAddressHash(key) & table_mask_;
  for (size_t probe = 0; probe < kProbeLimit; ++probe) {
    const uint64_t current = table.keys[index].load(std::memory_order_acquire);
    if (current == key) {
      return table.values[index].load(std::memory_order_relaxed);
    }
    if (current == 0) {
      return default_entry_.get();
    }
    index = (index + 1) & table_mask_;
  }
  return default_entry_.get();
}

AgentKind VariableAgentMap::MasterEnter(Entry* entry, uint32_t tid) {
  auto& flag = entry->inflight[tid].value;
  SpinWait waiter;
  for (;;) {
    // The Dekker pair with Migrate's quiesce: flag published, THEN route
    // loaded, both seq_cst. Migrate publishes kQuiescing (seq_cst), THEN
    // scans the flags. In the seq_cst total order either our route load
    // sees the publish (we back off below), or it precedes the publish —
    // and then our flag store precedes the migrator's scan, which therefore
    // sees the flag up until MasterExit has made the op's record visible.
    flag.store(1, std::memory_order_seq_cst);
    const uint64_t word = entry->route.load(std::memory_order_seq_cst);
    if (RouteStateOf(word) == RouteState::kActive) [[likely]] {
      return RouteKind(word);
    }
    // Migration in flight: withdraw and wait for the flip (or the abort
    // path, which restores the old route — either way the route returns to
    // kActive, so this wait is bounded by migrate_timeout).
    flag.store(0, std::memory_order_release);
    if (control_.aborted()) {
      throw VariantKilled{};
    }
    waiter.Pause();
  }
}

void VariableAgentMap::MasterExit(Entry* entry, uint32_t tid) {
  auto& count = entry->recorded[tid].value;
  // Owner-written: only master thread tid bumps this. The release pairs with
  // the slave gate's acquire — a slave admitted on this count must also see
  // the sub-agent's published record. (The runtimes' own replay waits
  // publish/acquire their records too; this makes the gate self-sufficient.)
  count.store(count.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  // This release pairs with the quiesce scan's acquire: whoever observes the
  // flag cleared also sees the count (and the sub-agent's published record).
  entry->inflight[tid].value.store(0, std::memory_order_release);
}

AgentKind VariableAgentMap::SlaveEnter(Entry* entry, uint32_t variant, uint32_t tid) {
  // My op's ordinal on this entry (owner-read; bumped in SlaveExit).
  const uint64_t mine = entry->replayed[variant - 1][tid].value.load(std::memory_order_relaxed);
  // No stats shard: parking here is admission, not a replay stall — the
  // routed runtime's own wait counts those.
  ReplayWait wait(control_, variant, config_.replay_deadline, nullptr);
  uint64_t word = 0;
  wait.Until(
      [&] {
        word = entry->route.load(std::memory_order_acquire);
        // kNull routes are migration-frozen (Migrate refuses them), so the
        // word's kind is the kind for every ordinal — no need to chase the
        // master.
        if (RouteKind(word) == AgentKind::kNull) [[unlikely]] {
          return true;
        }
        // Admission rule: wait until the MASTER has recorded this same
        // ordinal, then replay under the current word's kind. Proof that the
        // word's kind is ordinal `mine`'s record kind, in every state:
        //  - recorded[tid] > mine and the word unchanged across the read
        //    (epochs never repeat, so the re-load is ABA-free) pin `mine`
        //    below the NEXT migration's freeze point — recorded[tid] is
        //    stable from quiesce to flip, so any in-progress or later
        //    migration freezes at > mine and keeps ordinal `mine` on this
        //    side of its flip.
        //  - And `mine` is at or above the LAST flip's freeze point: that
        //    flip's drain waited for replayed[v][tid] to reach it, and our
        //    replayed count still is `mine` — so the master recorded ordinal
        //    `mine` after the last flip, under the word's kind (induction
        //    across migrations: docs/DESIGN.md §11).
        // A slave ahead of the master parks HERE, never inside a runtime
        // whose stream the ordinal may yet migrate out of.
        return entry->recorded[tid].value.load(std::memory_order_acquire) > mine &&
               entry->route.load(std::memory_order_acquire) == word;
      },
      [&] {
        return "adaptive replay stall (variable '" + entry->name + "', variant " +
               std::to_string(variant) + " tid " + std::to_string(tid) +
               " waiting for master ordinal " + std::to_string(mine) + ")";
      });
  return RouteKind(word);
}

void VariableAgentMap::SlaveExit(Entry* entry, uint32_t variant, uint32_t tid) {
  auto& count = entry->replayed[variant - 1][tid].value;
  // Owner-written; the release pairs with the drain loop's acquire, which
  // must see the replayed op's effects before flipping the route.
  count.store(count.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

bool VariableAgentMap::AbortMigration(Entry* entry, AgentKind from, uint64_t epoch,
                                      const char* phase) {
  (void)phase;
  // Restore the old route. Always safe before the flip: no op was admitted
  // under the new kind, so master and slaves are still consistently on
  // `from` — blocked masters and draining slaves simply resume.
  entry->route.store(MakeRoute(from, RouteState::kActive, epoch), std::memory_order_seq_cst);
  migrations_aborted_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool VariableAgentMap::Migrate(Entry* entry, AgentKind to) {
  // One migration at a time, map-wide. Serialization keeps the epoch
  // protocol's induction simple (docs/DESIGN.md §11) and migration is a
  // rare, controller-paced event.
  std::lock_guard<std::mutex> lock(migrate_mutex_);
  const uint64_t start = entry->route.load(std::memory_order_acquire);
  const AgentKind from = RouteKind(start);
  if (from == to) {
    return false;
  }
  // kNull routes are migration-frozen: the slave gate's kNull fast path does
  // not chase the master's recorded count (a null route has no records), so
  // a null-routed slave may run arbitrarily far ahead — a flip would strand
  // its already-replayed ordinals outside the new runtime's stream. The
  // controller never selects kNull entries anyway; this closes ForceMigrate.
  if (from == AgentKind::kNull || to == AgentKind::kNull) {
    return false;
  }
  uint64_t epoch = RouteEpoch(start);
  DeadlineGate deadline(config_.migrate_timeout);
  SpinWait waiter;

  // Phase 1 — quiesce the masters: publish kQuiescing (seq_cst half of the
  // Dekker pair, see MasterEnter), then wait for every inflight flag to read
  // 0 once. A flag that flickers 1 afterwards belongs to a master that will
  // observe kQuiescing and withdraw — it cannot record under `from`.
  entry->route.store(MakeRoute(from, RouteState::kQuiescing, ++epoch),
                     std::memory_order_seq_cst);
  for (uint32_t t = 0; t < config_.max_threads; ++t) {
    waiter.Reset();
    while (entry->inflight[t].value.load(std::memory_order_seq_cst) != 0) {
      if (control_.aborted() || deadline.Expired(waiter)) {
        return AbortMigration(entry, from, ++epoch, "quiesce");
      }
      waiter.Pause();
    }
  }

  // Phase 2 — snapshot the freeze point: recorded[t] is final for this epoch
  // (masters are quiesced and stay parked until the flip), and every counted
  // op's record is visible (the MasterExit release / scan acquire pairing).
  // Migration-local — the slave gate reads recorded[] directly.
  std::vector<uint64_t> frozen(config_.max_threads);
  for (uint32_t t = 0; t < config_.max_threads; ++t) {
    frozen[t] = entry->recorded[t].value.load(std::memory_order_acquire);
  }

  // Phase 3 — drain the slaves: publish kDraining (slaves below the freeze
  // point keep replaying under `from` — the gate admits them against
  // recorded[]), then wait until every live slave's per-thread replay count
  // reaches it. The flip-only-after-drain rule is what lets the slave gate
  // trust an active route word: see SlaveEnter.
  entry->route.store(MakeRoute(from, RouteState::kDraining, ++epoch),
                     std::memory_order_seq_cst);
  for (uint32_t v = 1; v < config_.num_variants; ++v) {
    for (uint32_t t = 0; t < config_.max_threads; ++t) {
      waiter.Reset();
      for (;;) {
        if ((detached_.load(std::memory_order_acquire) & (uint32_t{1} << v)) != 0 ||
            control_.variant_dead(v)) {
          break;  // Excised variants owe no replay.
        }
        if (entry->replayed[v - 1][t].value.load(std::memory_order_acquire) >= frozen[t]) {
          break;
        }
        if (control_.aborted() || deadline.Expired(waiter)) {
          return AbortMigration(entry, from, ++epoch, "drain");
        }
        waiter.Pause();
      }
    }
  }

  // Phase 4 — flip. The release ordering (inside seq_cst) makes the drained
  // state visible to every master/slave that acquires the new route word.
  entry->route.store(MakeRoute(to, RouteState::kActive, ++epoch),
                     std::memory_order_seq_cst);
  entry->migrations.fetch_add(1, std::memory_order_relaxed);
  migrations_done_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void VariableAgentMap::DetachVariant(uint32_t variant) {
  detached_.fetch_or(uint32_t{1} << variant, std::memory_order_acq_rel);
}

}  // namespace mvee
