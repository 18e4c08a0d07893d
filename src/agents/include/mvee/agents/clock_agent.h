// The clock record/replay engine behind the wall-of-clocks (WoC) and
// per-variable-order (PVO) agents (paper §4.5, Figure 4c).
//
// Recording: the master thread maps the sync variable's address to a logical
// clock, acquires that clock's lock, executes the op, logs (clock id, clock
// time) into *its own* recording ring, increments the clock, releases. One
// ring per master thread means each ring has a single producer and the
// agent introduces no cross-thread sharing beyond what the program's own
// lock contention already implies.
//
// Replay: slave thread t pops the next (clock, time) entry from ring t and
// waits until its variant's local copy of that clock reaches `time`; after
// executing the op it increments the local clock. Slaves never see the
// master's clocks, other rings or the address map — the recorded clock id
// alone drives replay (§4.5), which also makes the engine fully
// address-space-layout agnostic (§4.5.1): addresses differ per variant
// under ASLR/DCL.
//
// The two agents differ only in the master's address->clock map, chosen at
// construction:
//  - kWallOfClocks: the paper's wall. Addresses hash onto a fixed pool of
//    AgentConfig::clock_count clocks (WallClockOf). Agents may not allocate
//    (§3.3), so collisions are tolerated and merely over-serialize (§4.5
//    last paragraph) — including the deliberate bucketing of adjacent
//    32-bit variables in one 64-bit line.
//  - kPerVariableOrder: WoC's collision-free limit. Every distinct 8-byte
//    bucket gets its *own* clock from a statically preallocated, insert-only,
//    lock-free table (PrivateClockTable), degrading to hashed sharing once
//    the table saturates. It bounds from above what WoC could gain from a
//    perfect address->clock map, at ~16x the memory of the wall.

#ifndef MVEE_AGENTS_CLOCK_AGENT_H_
#define MVEE_AGENTS_CLOCK_AGENT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "mvee/agents/record_shards.h"
#include "mvee/agents/sync_agent.h"
#include "mvee/util/hash.h"

namespace mvee {

// The PVO address->clock map: an insert-only open-addressing table whose
// slot index *is* the clock id, so a successful insert allocates the clock
// in the same CAS. Thread-safe, lock-free, allocation-free after
// construction.
class PrivateClockTable {
 public:
  explicit PrivateClockTable(size_t clock_count);

  // Table capacity for a given wall size: next power of two >= 8x the clock
  // count, saturating at the max table size instead of wrapping size_t on
  // huge configs. Static so the overflow guard is testable without
  // allocating a ceiling-sized table.
  static size_t CapacityFor(size_t clock_count);

  size_t capacity() const { return keys_.size(); }

  // The address's private clock, inserted on first sight; a shared, hashed
  // clock once the probe window is saturated.
  uint32_t ClockOf(const void* addr);

  uint64_t VariablesMapped() const { return variables_mapped_.load(std::memory_order_relaxed); }
  uint64_t Overflows() const { return overflows_.load(std::memory_order_relaxed); }

 private:
  const uint64_t mask_;
  std::atomic<uint64_t> variables_mapped_{0};
  std::atomic<uint64_t> overflows_{0};
  // keys_[i] holds the 8-byte-bucketed address (+1) owning clock i, or 0 if
  // clock i is still free.
  std::vector<std::atomic<uint64_t>> keys_;
  // Insert-only dedup set of keys that overflowed, so Overflows() counts
  // variables, not lookups. Deliberately much smaller than the main table
  // (it only matters once the table is already saturated, and the counter
  // tolerates overcounting when the set itself fills up).
  const uint64_t overflow_mask_;
  std::vector<std::atomic<uint64_t>> overflow_keys_;
};

class ClockRuntime {
 public:
  // `kind` picks the address->clock map: kPerVariableOrder for the private
  // table, anything else for the hashed wall.
  ClockRuntime(AgentKind kind, const AgentConfig& config, AgentControl control);

  std::unique_ptr<SyncAgent> CreateAgent(uint32_t variant_index);

  // Excision (docs/DESIGN.md §9): stop `variant`'s stalled ring cursors from
  // gating the master's recording, so survivors keep producing after the
  // variant left. Safe concurrently with running agents.
  void DetachVariant(uint32_t variant);

  AgentKind kind() const {
    return table_ ? AgentKind::kPerVariableOrder : AgentKind::kWallOfClocks;
  }
  const AgentStats& stats() const { return stats_; }
  // Size of the clock pool: the wall size, or the private table's capacity.
  size_t clock_count() const { return master_clocks_.size(); }
  // Per-thread recording rings materialized so far (lazy allocation).
  uint64_t RecordingRingsCreated() const { return rings_.CreatedCount(); }

  // Maps a master-side sync-variable address to its clock id (inserting a
  // private clock on first sight under kPerVariableOrder). Public for tests.
  uint32_t ClockOf(const void* addr) {
    return table_ ? table_->ClockOf(addr) : WallClockOf(addr, master_clocks_.size());
  }

  // kPerVariableOrder only (0 for the wall): distinct sync variables that
  // received a private clock, and distinct variables that hit the probe
  // limit and fell back to a shared clock — each saturated variable counts
  // once, no matter how many lookups it serves. (If the dedup side table
  // itself saturates — a config already drowning in overflow — further
  // overflowing variables count once per lookup; the number stays an upper
  // bound on overflowed variables.)
  uint64_t VariablesMapped() const { return table_ ? table_->VariablesMapped() : 0; }
  uint64_t TableOverflows() const { return table_ ? table_->Overflows() : 0; }

 private:
  friend class ClockAgent;

  struct Entry {
    uint32_t clock_id = 0;
    uint64_t time = 0;
  };

  // Master-side clock: spinlock + time, one cache line each to avoid false
  // sharing across clocks.
  struct alignas(64) MasterClock {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    uint64_t time = 0;
  };

  // Slave-side local clock copy.
  struct alignas(64) SlaveClock {
    std::atomic<uint64_t> time{0};
  };

  AgentConfig config_;
  AgentControl control_;
  AgentStats stats_;
  std::unique_ptr<PrivateClockTable> table_;  // Null for the hashed wall.
  std::vector<MasterClock> master_clocks_;
  // One ring per master thread, created on first touch; slaves of variant v
  // consume with id v-1.
  LazyRingSet<Entry> rings_;
  // slave_clocks_[v-1][c] for slave variant v.
  std::vector<std::vector<SlaveClock>> slave_clocks_;
};

class ClockAgent final : public SyncAgent {
 public:
  ClockAgent(ClockRuntime* runtime, uint32_t variant_index);

  void BeforeSyncOp(uint32_t tid, const void* addr) override;
  void AfterSyncOp(uint32_t tid, const void* addr) override;
  AgentRole role() const override { return role_; }
  const char* name() const override { return AgentKindName(runtime_->kind()); }

 private:
  ClockRuntime* const runtime_;
  const AgentRole role_;
  const uint32_t variant_index_;
  // Per-thread scratch carrying the (clock, time) pair from Before to After
  // (one pending op per thread; owned exclusively by that thread), sized
  // from config.max_threads.
  std::vector<ClockRuntime::Entry> pending_;
};

}  // namespace mvee

#endif  // MVEE_AGENTS_CLOCK_AGENT_H_
