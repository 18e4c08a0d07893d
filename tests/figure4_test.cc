// Figure 4, executed: the paper's worked example of the three replication
// strategies distilled into deterministic tests.
//
// Master history (recorded before any slave thread runs):
//   m1: enter_sec(&A), leave_sec(&A)      (thread 0, lock A)
//   m2: enter_sec(&B), leave_sec(&B)      (thread 1, lock B)
// Slave schedule: s2 (thread 1) reaches its critical section on B first,
// while s1 (thread 0) has not executed anything yet.
//
//   Figure 4(a) total-order:   s2 MUST STALL — the replay ratchet admits
//                              thread 0's sequences first (the red bar).
//   Figure 4(b) partial-order: s2 proceeds — its op depends on no earlier
//                              op touching B.
//   Figure 4(c) wall-of-clocks: s2 proceeds — clock cB is at its recorded
//                              time; buffers are per-thread anyway.
//
// The tests run the literal scenario: record the master history, then run
// only s2 and observe whether it completes or hits the replay deadline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/agent_fleet.h"
#include "mvee/agents/context.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/variant_killed.h"

namespace mvee {
namespace {

struct Figure4Harness {
  explicit Figure4Harness(AgentKind kind, std::chrono::milliseconds deadline,
                          size_t po_window = 1 << 12) {
    config.num_variants = 2;
    config.max_threads = 2;
    config.replay_deadline = deadline;
    config.po_window = po_window;
    control.abort_flag = &abort_flag;
    control.on_stall = [this](const std::string&) { stalled.store(true); };
    fleet = std::make_unique<AgentFleet>(kind, config, control);
    master = fleet->CreateAgent(0);
    slave = fleet->CreateAgent(1);
  }

  // Records the master history of Figure 4: thread 0 locks/unlocks A, then
  // thread 1 locks/unlocks B. (Each Lock/Unlock is one sync op on the lock
  // word — enter_sec/leave_sec in the figure.)
  void RecordMasterHistory() {
    SyncContext context0{master.get(), nullptr, 0};
    {
      ScopedSyncContext scoped(&context0);
      master_lock_a.Lock();
      master_lock_a.Unlock();
    }
    SyncContext context1{master.get(), nullptr, 1};
    {
      ScopedSyncContext scoped(&context1);
      master_lock_b.Lock();
      master_lock_b.Unlock();
    }
  }

  // Runs only slave thread s2 (logical thread 1) attempting its critical
  // section on B. Returns true if it completed, false if it was stalled
  // until the replay deadline.
  bool RunSlaveS2Alone() {
    std::atomic<bool> completed{false};
    std::thread s2([&] {
      SyncContext context{slave.get(), nullptr, 1};
      ScopedSyncContext scoped(&context);
      try {
        slave_lock_b.Lock();
        slave_lock_b.Unlock();
        completed.store(true);
      } catch (const VariantKilled&) {
      }
    });
    s2.join();
    return completed.load();
  }

  // Afterwards, s1 replays thread 0's history (needed to drain buffers for
  // the strategies where s2 already completed).
  void RunSlaveS1() {
    std::thread s1([&] {
      SyncContext context{slave.get(), nullptr, 0};
      ScopedSyncContext scoped(&context);
      try {
        slave_lock_a.Lock();
        slave_lock_a.Unlock();
      } catch (const VariantKilled&) {
      }
    });
    s1.join();
  }

  AgentConfig config;
  std::atomic<bool> abort_flag{false};
  std::atomic<bool> stalled{false};
  AgentControl control;
  std::unique_ptr<AgentFleet> fleet;
  std::unique_ptr<SyncAgent> master;
  std::unique_ptr<SyncAgent> slave;
  // Distinct lock objects per variant: the agents must not rely on shared
  // addresses (§4.5.1). Each lock gets its own cache line — two adjacent
  // 32-bit lock words share an 8-byte clock bucket by design (the CMPXCHG8B
  // rationale, §4.5), which would merge cA and cB and reintroduce the very
  // serialization this test asserts away.
  struct alignas(64) PaddedLock {
    SpinLock lock;
    void Lock() { lock.Lock(); }
    void Unlock() { lock.Unlock(); }
  };
  PaddedLock master_lock_a, master_lock_b;
  PaddedLock slave_lock_a, slave_lock_b;
};

// PO replay orders only ops whose recorded dependence chains meet, and ops
// on locks A and B share a chain when the two addresses hash to the same
// record shard (correct but over-serializing — the same caveat as WoC's
// clock collisions above). Lock addresses shift run to run, so harnesses
// are re-allocated (keeping the rejects alive so the addresses actually
// move) until the two locks provably land in distinct shards.
struct DistinctShardHarness {
  DistinctShardHarness(AgentKind kind, std::chrono::milliseconds deadline, size_t po_window) {
    for (int attempt = 0; attempt < 16 && harness == nullptr; ++attempt) {
      tries.push_back(std::make_unique<Figure4Harness>(kind, deadline, po_window));
      Figure4Harness& candidate = *tries.back();
      // The instrumented sync variable sits at offset 0 of the lock (the
      // InstrumentedAtomic's value is its first member), so the lock address
      // is the recorded address.
      if (PartialOrderRuntime::RecordShardIndex(&candidate.master_lock_a) !=
          PartialOrderRuntime::RecordShardIndex(&candidate.master_lock_b)) {
        harness = &candidate;
      }
    }
  }

  std::vector<std::unique_ptr<Figure4Harness>> tries;
  Figure4Harness* harness = nullptr;
};

// The sequence ratchet only admits the globally next ticket, so s2 may not
// run before s1 consumed thread 0's entries: TO's unnecessary stall is a
// property of the total order itself.
TEST(Figure4Test, TotalOrderStallsUnrelatedSection) {
  // Short deadline: the expected outcome IS the stall (the figure's red bar);
  // waiting longer would only slow the test down.
  Figure4Harness harness(AgentKind::kTotalOrder, std::chrono::milliseconds(300));
  harness.RecordMasterHistory();
  EXPECT_FALSE(harness.RunSlaveS2Alone())
      << "TO replay must not let s2 run before s1 consumed thread 0's entries";
  EXPECT_TRUE(harness.stalled.load());
}

// s2's entries sit in its own per-thread ring, and its recorded dependence
// edge points at no entry of thread 0.
TEST(Figure4Test, PartialOrderLetsIndependentSectionProceed) {
  DistinctShardHarness distinct(AgentKind::kPartialOrder, std::chrono::milliseconds(20000),
                                /*po_window=*/1 << 12);
  ASSERT_NE(distinct.harness, nullptr) << "16 consecutive shard collisions (p ~ 512^-16)";
  Figure4Harness& harness = *distinct.harness;
  harness.RecordMasterHistory();
  EXPECT_TRUE(harness.RunSlaveS2Alone())
      << "PO replay orders only dependent ops; s2's section on B is independent";
  EXPECT_FALSE(harness.stalled.load());
  harness.RunSlaveS1();
}

// po_window bounds how far the master may run ahead of the slowest slave's
// replayed prefix, and the bound is enforced on the master. With a window
// of 1, thread 0's lock (ticket 0) is admitted, but its unlock would be
// ticket 1 — one past the window while the slave has replayed nothing — so
// the master stalls in the gate until slave s1 replays ticket 0, then
// finishes.
TEST(Figure4Test, PartialOrderWindowOneStallsMasterUntilReplay) {
  Figure4Harness harness(AgentKind::kPartialOrder, std::chrono::milliseconds(20000),
                         /*po_window=*/1);
  std::atomic<bool> master_done{false};
  std::thread m1([&] {
    SyncContext context{harness.master.get(), nullptr, 0};
    ScopedSyncContext scoped(&context);
    try {
      harness.master_lock_a.Lock();
      harness.master_lock_a.Unlock();
      master_done.store(true);
    } catch (const VariantKilled&) {
    }
  });
  // Wait (bounded) for the master to reach the gate, then give it 100 ms
  // in which it must not get past.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.fleet->StatsSnapshot().record_stalls == 0 && !master_done.load() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(harness.fleet->StatsSnapshot().record_stalls, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(master_done.load()) << "the unlock ran past the po_window=1 bound";
  harness.RunSlaveS1();  // Replays ticket 0, opening the window for ticket 1.
  m1.join();
  EXPECT_TRUE(master_done.load());
  EXPECT_FALSE(harness.stalled.load());
}

// A window of 4 admits the whole four-op master history without a stall,
// and s2's independent section proceeds as with the default window.
TEST(Figure4Test, PartialOrderWindowFourSuffices) {
  DistinctShardHarness distinct(AgentKind::kPartialOrder, std::chrono::milliseconds(20000),
                                /*po_window=*/4);
  ASSERT_NE(distinct.harness, nullptr) << "16 consecutive shard collisions (p ~ 512^-16)";
  Figure4Harness& harness = *distinct.harness;
  harness.RecordMasterHistory();
  EXPECT_EQ(harness.fleet->StatsSnapshot().record_stalls, 0u);
  EXPECT_TRUE(harness.RunSlaveS2Alone());
  harness.RunSlaveS1();
}

TEST(Figure4Test, WallOfClocksLetsIndependentSectionProceed) {
  Figure4Harness harness(AgentKind::kWallOfClocks, std::chrono::milliseconds(20000));
  harness.RecordMasterHistory();
  EXPECT_TRUE(harness.RunSlaveS2Alone())
      << "WoC: buffer 2 only holds clock-cB entries at their current times";
  EXPECT_FALSE(harness.stalled.load());
  harness.RunSlaveS1();
}

TEST(Figure4Test, PerVariableOrderLetsIndependentSectionProceed) {
  Figure4Harness harness(AgentKind::kPerVariableOrder, std::chrono::milliseconds(20000));
  harness.RecordMasterHistory();
  EXPECT_TRUE(harness.RunSlaveS2Alone());
  EXPECT_FALSE(harness.stalled.load());
  harness.RunSlaveS1();
}

// The second half of Figure 4(c): thread m1's third section is protected by
// lock B (clock cB, time 2). Slave thread s1 must wait until s2 has brought
// its local copy of cB to 2 — cross-thread clock waits work.
TEST(Figure4Test, WallOfClocksCrossThreadClockWait) {
  Figure4Harness harness(AgentKind::kWallOfClocks, std::chrono::milliseconds(20000));

  // Master: m1 A-section; m2 B-section; m1 B-section (the t4 event).
  {
    SyncContext context0{harness.master.get(), nullptr, 0};
    ScopedSyncContext scoped(&context0);
    harness.master_lock_a.Lock();
    harness.master_lock_a.Unlock();
  }
  {
    SyncContext context1{harness.master.get(), nullptr, 1};
    ScopedSyncContext scoped(&context1);
    harness.master_lock_b.Lock();
    harness.master_lock_b.Unlock();
  }
  {
    SyncContext context0{harness.master.get(), nullptr, 0};
    ScopedSyncContext scoped(&context0);
    harness.master_lock_b.Lock();
    harness.master_lock_b.Unlock();
  }

  // Slave: s1 runs its whole history (A-section then B-section). Its
  // B-section needs cB == 2, which only s2's replay can provide — so run s1
  // concurrently with a deliberately delayed s2 and require both to finish.
  std::atomic<bool> s1_done{false};
  std::atomic<bool> s2_done{false};
  std::thread s1([&] {
    SyncContext context{harness.slave.get(), nullptr, 0};
    ScopedSyncContext scoped(&context);
    try {
      harness.slave_lock_a.Lock();
      harness.slave_lock_a.Unlock();
      harness.slave_lock_b.Lock();  // Must wait for s2's increments.
      harness.slave_lock_b.Unlock();
      s1_done.store(true);
    } catch (const VariantKilled&) {
    }
  });
  std::thread s2([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // The figure's late s2.
    SyncContext context{harness.slave.get(), nullptr, 1};
    ScopedSyncContext scoped(&context);
    try {
      harness.slave_lock_b.Lock();
      harness.slave_lock_b.Unlock();
      s2_done.store(true);
    } catch (const VariantKilled&) {
    }
  });
  s1.join();
  s2.join();
  EXPECT_TRUE(s1_done.load());
  EXPECT_TRUE(s2_done.load());
}

}  // namespace
}  // namespace mvee
