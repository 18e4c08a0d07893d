// Tests for the replication agents (TO / PO / WoC) and the instrumented sync
// primitives.
//
// The core property (paper §3.2): for every pair of dependent sync ops (ops
// on the same sync variable), every slave variant replays them in the order
// the master executed them. The harness runs a master variant and S slave
// variants concurrently, each with its own copy of the program state
// (different addresses — the agents must be layout-agnostic, §4.5.1), and
// compares the per-lock acquisition orders.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/agent_fleet.h"
#include "mvee/agents/context.h"
#include "mvee/monitor/mvee.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/rng.h"
#include "mvee/util/variant_killed.h"

namespace mvee {
namespace {

// One variant's copy of the test program state: K locks, each protecting a
// log of acquiring tids. Allocated per variant, so addresses differ.
struct VariantProgramState {
  explicit VariantProgramState(size_t lock_count)
      : locks(lock_count), logs(lock_count) {}

  std::vector<SpinLock> locks;
  std::vector<std::vector<uint32_t>> logs;  // guarded by the matching lock
};

struct ReplayHarnessResult {
  std::vector<std::unique_ptr<VariantProgramState>> states;
  bool ok = true;
};

// Runs `threads` threads in every variant; thread t performs `ops` critical
// sections on pseudo-randomly chosen locks (the per-thread choice sequence is
// seeded by tid only, so all variants run the same per-thread program).
ReplayHarnessResult RunReplayHarness(AgentKind kind, uint32_t variants, uint32_t threads,
                                     size_t lock_count, int ops, uint32_t max_threads = 0,
                                     uint32_t tid_offset = 0) {
  AgentConfig config;
  config.num_variants = variants;
  config.max_threads = max_threads == 0 ? threads + tid_offset : max_threads;
  config.buffer_capacity = 1 << 14;
  config.clock_count = 64;  // Small wall: force collisions on purpose.
  config.replay_deadline = std::chrono::milliseconds(20000);

  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;

  AgentFleet fleet(kind, config, control);

  ReplayHarnessResult result;
  std::vector<std::unique_ptr<SyncAgent>> agents;
  for (uint32_t v = 0; v < variants; ++v) {
    result.states.push_back(std::make_unique<VariantProgramState>(lock_count));
    agents.push_back(fleet.CreateAgent(v));
  }

  std::vector<std::thread> workers;
  for (uint32_t v = 0; v < variants; ++v) {
    for (uint32_t logical = 0; logical < threads; ++logical) {
      const uint32_t t = logical + tid_offset;
      workers.emplace_back([&, v, t] {
        SyncContext context{agents[v].get(), nullptr, t};
        ScopedSyncContext scoped(&context);
        VariantProgramState& state = *result.states[v];
        Rng rng(1000 + t);  // Same schedule in every variant.
        try {
          for (int i = 0; i < ops; ++i) {
            const size_t lock_index = rng.NextBelow(state.locks.size());
            state.locks[lock_index].Lock();
            state.logs[lock_index].push_back(t);
            state.locks[lock_index].Unlock();
          }
        } catch (const VariantKilled&) {
          result.ok = false;
        }
      });
    }
  }
  for (auto& worker : workers) {
    worker.join();
  }
  return result;
}

// Swept over every agent kind: slaves must reproduce the master's per-lock
// acquisition order.
class AgentReplayTest : public ::testing::TestWithParam<AgentKind> {
 protected:
  AgentKind kind() const { return GetParam(); }
};

TEST_P(AgentReplayTest, SlavesReproducePerLockAcquisitionOrder) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/4,
                                       /*lock_count=*/8, /*ops=*/300);
  ASSERT_TRUE(result.ok);
  const auto& master = *result.states[0];
  const auto& slave = *result.states[1];
  for (size_t lock = 0; lock < master.logs.size(); ++lock) {
    EXPECT_EQ(master.logs[lock], slave.logs[lock]) << "lock " << lock;
  }
}

TEST_P(AgentReplayTest, ThreeSlavesAllMatch) {
  const auto result = RunReplayHarness(kind(), /*variants=*/4, /*threads=*/3,
                                       /*lock_count=*/4, /*ops=*/150);
  ASSERT_TRUE(result.ok);
  for (uint32_t v = 1; v < 4; ++v) {
    for (size_t lock = 0; lock < result.states[0]->logs.size(); ++lock) {
      EXPECT_EQ(result.states[0]->logs[lock], result.states[v]->logs[lock])
          << "variant " << v << " lock " << lock;
    }
  }
}

TEST_P(AgentReplayTest, SingleThreadIsTrivial) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/1,
                                       /*lock_count=*/2, /*ops=*/100);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.states[0]->logs, result.states[1]->logs);
}

TEST_P(AgentReplayTest, HighContentionSingleLock) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/4,
                                       /*lock_count=*/1, /*ops=*/200);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.states[0]->logs[0], result.states[1]->logs[0]);
  EXPECT_EQ(result.states[0]->logs[0].size(), 800u);
}

// The OOB regression the fixed-size pending_[256] arrays used to hit: logical
// tids near the top of a max_threads > 256 config silently overran the
// per-thread scratch (and WoC/PVO's ring array). Eight real threads carry
// tids 292..299 through a 300-thread config.
TEST_P(AgentReplayTest, MaxThreadsBeyond256) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/8,
                                       /*lock_count=*/4, /*ops=*/50,
                                       /*max_threads=*/300, /*tid_offset=*/292);
  ASSERT_TRUE(result.ok);
  const auto& master = *result.states[0];
  const auto& slave = *result.states[1];
  for (size_t lock = 0; lock < master.logs.size(); ++lock) {
    EXPECT_EQ(master.logs[lock], slave.logs[lock]) << "lock " << lock;
  }
}

std::string ReplayParamName(const ::testing::TestParamInfo<AgentKind>& info) {
  std::string name;
  switch (info.param) {
    case AgentKind::kTotalOrder:
      name = "TotalOrder";
      break;
    case AgentKind::kPartialOrder:
      name = "PartialOrder";
      break;
    case AgentKind::kWallOfClocks:
      name = "WallOfClocks";
      break;
    case AgentKind::kPerVariableOrder:
      name = "PerVariableOrder";
      break;
    default:
      name = "Null";
      break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAgents, AgentReplayTest,
                         ::testing::Values(AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                                           AgentKind::kWallOfClocks,
                                           AgentKind::kPerVariableOrder),
                         ReplayParamName);

TEST(AgentStatsTest, RecordedEqualsReplayedPerSlave) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 2;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control);
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);

  int dummy = 0;
  for (int i = 0; i < 10; ++i) {
    master->BeforeSyncOp(0, &dummy);
    master->AfterSyncOp(0, &dummy);
  }
  for (int i = 0; i < 10; ++i) {
    slave->BeforeSyncOp(0, &dummy);
    slave->AfterSyncOp(0, &dummy);
  }
  EXPECT_EQ(fleet.StatsSnapshot().ops_recorded, 10u);
  EXPECT_EQ(fleet.StatsSnapshot().ops_replayed, 10u);
}

TEST(AgentAbortTest, AbortFlagReleasesStalledSlave) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 1;
  config.replay_deadline = std::chrono::milliseconds(60000);
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control);
  auto slave = fleet.CreateAgent(1);

  std::atomic<bool> killed{false};
  std::thread stalled([&] {
    int dummy = 0;
    try {
      // No master recording: the slave has nothing to replay and must stall.
      slave->BeforeSyncOp(0, &dummy);
    } catch (const VariantKilled&) {
      killed.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(killed.load());
  abort.store(true);
  stalled.join();
  EXPECT_TRUE(killed.load());
}

TEST(AgentStallTest, ReplayDeadlineReportsStall) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 1;
  config.replay_deadline = std::chrono::milliseconds(100);
  std::atomic<bool> abort{false};
  std::atomic<bool> stall_reported{false};
  AgentControl control;
  control.abort_flag = &abort;
  control.on_stall = [&](const std::string&) { stall_reported.store(true); };
  AgentFleet fleet(AgentKind::kTotalOrder, config, control);
  auto slave = fleet.CreateAgent(1);

  int dummy = 0;
  EXPECT_THROW(slave->BeforeSyncOp(0, &dummy), VariantKilled);
  EXPECT_TRUE(stall_reported.load());
}

TEST(WallOfClocksTest, AdjacentWordsShareAClock) {
  AgentConfig config;
  config.num_variants = 2;
  config.clock_count = 4096;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime(AgentKind::kWallOfClocks, config, control);
  alignas(8) int32_t words[2] = {0, 0};
  EXPECT_EQ(runtime.ClockOf(&words[0]), runtime.ClockOf(&words[1]));
}

TEST(WallOfClocksTest, ClockAssignmentIsDeterministic) {
  AgentConfig config;
  config.num_variants = 2;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime_a(AgentKind::kWallOfClocks, config, control);
  ClockRuntime runtime_b(AgentKind::kWallOfClocks, config, control);
  int x = 0;
  EXPECT_EQ(runtime_a.ClockOf(&x), runtime_b.ClockOf(&x));
}

TEST(NullAgentTest, IsPureNoOp) {
  NullAgent* agent = NullAgent::Instance();
  int dummy = 0;
  agent->BeforeSyncOp(0, &dummy);
  agent->AfterSyncOp(0, &dummy);
  EXPECT_STREQ(agent->name(), "null");
}

// --- Instrumented primitives (native, NullAgent) ---

TEST(PrimitivesTest, MutexMutualExclusion) {
  Mutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        LockGuard<Mutex> guard(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 20000);
}

TEST(PrimitivesTest, SpinLockMutualExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.Lock();
        ++counter;
        lock.Unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 8000);
}

TEST(PrimitivesTest, TicketLockIsFifoUnderSingleThread) {
  TicketLock lock;
  lock.Lock();
  lock.Unlock();
  lock.Lock();
  lock.Unlock();
  SUCCEED();
}

TEST(PrimitivesTest, TicketLockMutualExclusion) {
  TicketLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.Lock();
        ++counter;
        lock.Unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 6000);
}

TEST(PrimitivesTest, TryLockContract) {
  Mutex mutex;
  EXPECT_TRUE(mutex.TryLock());
  EXPECT_FALSE(mutex.TryLock());
  mutex.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(PrimitivesTest, BarrierPhases) {
  constexpr int kThreads = 4;
  Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::atomic<int> serial_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        phase_counter.fetch_add(1);
        if (barrier.Arrive()) {
          serial_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(phase_counter.load(), kThreads * 10);
  EXPECT_EQ(serial_count.load(), 10);  // Exactly one serial thread per phase.
}

TEST(PrimitivesTest, SemaphoreBoundsConcurrency) {
  Semaphore semaphore(2);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        semaphore.Acquire();
        const int now = active.fetch_add(1) + 1;
        int expected = max_active.load();
        while (now > expected && !max_active.compare_exchange_weak(expected, now)) {
        }
        active.fetch_sub(1);
        semaphore.Release();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(max_active.load(), 2);
}

TEST(PrimitivesTest, SemaphoreTryAcquire) {
  Semaphore semaphore(1);
  EXPECT_TRUE(semaphore.TryAcquire());
  EXPECT_FALSE(semaphore.TryAcquire());
  semaphore.Release();
  EXPECT_TRUE(semaphore.TryAcquire());
}

TEST(PrimitivesTest, CondVarSignalsWaiter) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    mutex.Lock();
    while (!ready) {
      cv.Wait(mutex);
    }
    mutex.Unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mutex.Lock();
  ready = true;
  mutex.Unlock();
  cv.Signal();
  waiter.join();
  SUCCEED();
}

TEST(PrimitivesTest, CondVarBroadcastReleasesAll) {
  Mutex mutex;
  CondVar cv;
  bool go = false;
  std::atomic<int> released{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      mutex.Lock();
      while (!go) {
        cv.Wait(mutex);
      }
      mutex.Unlock();
      released.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mutex.Lock();
  go = true;
  mutex.Unlock();
  cv.Broadcast();
  for (auto& waiter : waiters) {
    waiter.join();
  }
  EXPECT_EQ(released.load(), 3);
}

TEST(PrimitivesTest, RwLockAllowsConcurrentReaders) {
  RwLock lock;
  lock.ReadLock();
  lock.ReadLock();  // Second reader does not deadlock.
  lock.ReadUnlock();
  lock.ReadUnlock();
  lock.WriteLock();
  lock.WriteUnlock();
}

TEST(PrimitivesTest, RwLockWriterExcludesReaders) {
  RwLock lock;
  std::atomic<bool> writer_in{false};
  std::atomic<bool> violation{false};
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      lock.WriteLock();
      writer_in.store(true);
      std::this_thread::yield();
      writer_in.store(false);
      lock.WriteUnlock();
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 500; ++i) {
      lock.ReadLock();
      if (writer_in.load()) {
        violation.store(true);
      }
      lock.ReadUnlock();
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(violation.load());
}

// Records the value of one sync variable right after each of the installing
// thread's ops on it, in a fixed array another thread can read while the
// recording thread runs (slot i is written once, then published by count_).
class WordRecordingAgent final : public SyncAgent {
 public:
  static constexpr size_t kMaxRecords = 4096;

  explicit WordRecordingAgent(const std::atomic<int32_t>* word) : word_(word) {}

  void BeforeSyncOp(uint32_t, const void*) override {}
  void AfterSyncOp(uint32_t, const void* addr) override {
    if (addr != word_) {
      return;
    }
    const size_t index = count_.load(std::memory_order_relaxed);
    if (index < kMaxRecords) {
      records_[index] = word_->load(std::memory_order_relaxed);
      count_.store(index + 1, std::memory_order_release);
    }
  }
  AgentRole role() const override { return AgentRole::kMaster; }
  const char* name() const override { return "word-recording"; }

  size_t count() const { return count_.load(std::memory_order_acquire); }
  int32_t record(size_t index) const { return records_[index]; }

 private:
  const std::atomic<int32_t>* const word_;
  std::atomic<size_t> count_{0};
  int32_t records_[kMaxRecords] = {};
};

// A reader spinning against a writer-held lock must only look at the word:
// any RMW on the writer's -1 briefly frees it (admitting a second writer) and
// can lose the writer's unlock, leaving a -1 nobody holds.
TEST(PrimitivesTest, RwLockReaderNeverTouchesWriterHeldWord) {
  RwLock lock;
  lock.WriteLock();
  WordRecordingAgent agent(lock.state().raw());
  std::thread reader([&] {
    SyncContext context{&agent, nullptr, /*tid=*/0};
    ScopedSyncContext scoped(&context);
    lock.ReadLock();
    lock.ReadUnlock();
  });
  while (agent.count() < 100) {
    std::this_thread::yield();
  }
  // Every op published so far completed while the writer held the lock.
  const size_t held_ops = agent.count();
  size_t touched = 0;
  for (size_t i = 0; i < held_ops; ++i) {
    touched += agent.record(i) != -1 ? 1 : 0;
  }
  EXPECT_EQ(touched, 0u) << "of " << held_ops << " reader ops while the writer held the lock";
  lock.WriteUnlock();
  reader.join();
  EXPECT_EQ(lock.state().Load(), 0);
}

TEST(PrimitivesTest, OnceFlagRunsExactlyOnce) {
  OnceFlag once;
  std::atomic<int> runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] { once.CallOnce([&] { runs.fetch_add(1); }); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(PrimitivesTest, WaitGroupWaitsForAll) {
  WaitGroup group;
  std::atomic<int> done{0};
  group.Add(3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      done.fetch_add(1);
      group.Done();
    });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 3);
  for (auto& thread : threads) {
    thread.join();
  }
}

// A recording agent that counts before/after pairing; validates that every
// primitive brackets its atomics correctly.
class CountingAgent final : public SyncAgent {
 public:
  void BeforeSyncOp(uint32_t, const void*) override {
    EXPECT_FALSE(in_op_.exchange(true));
    before_.fetch_add(1);
  }
  void AfterSyncOp(uint32_t, const void*) override {
    EXPECT_TRUE(in_op_.exchange(false));
    after_.fetch_add(1);
  }
  AgentRole role() const override { return AgentRole::kMaster; }
  const char* name() const override { return "counting"; }

  uint64_t before() const { return before_.load(); }
  uint64_t after() const { return after_.load(); }

 private:
  std::atomic<uint64_t> before_{0};
  std::atomic<uint64_t> after_{0};
  std::atomic<bool> in_op_{false};
};

TEST(InstrumentationTest, EveryAtomicIsBracketed) {
  CountingAgent agent;
  SyncContext context{&agent, nullptr, 0};
  ScopedSyncContext scoped(&context);

  Mutex mutex;
  mutex.Lock();
  mutex.Unlock();
  SpinLock spin;
  spin.Lock();
  spin.Unlock();
  Semaphore sem(1);
  sem.Acquire();
  sem.Release();

  EXPECT_GT(agent.before(), 0u);
  EXPECT_EQ(agent.before(), agent.after());
}

TEST(InstrumentationTest, InstrumentedAtomicOps) {
  CountingAgent agent;
  SyncContext context{&agent, nullptr, 0};
  ScopedSyncContext scoped(&context);

  InstrumentedAtomic<int32_t> value(5);
  EXPECT_EQ(value.Load(), 5);
  value.Store(7);
  EXPECT_EQ(value.Exchange(9), 7);
  int32_t expected = 9;
  EXPECT_TRUE(value.CompareExchange(expected, 11));
  expected = 100;
  EXPECT_FALSE(value.CompareExchange(expected, 0));
  EXPECT_EQ(expected, 11);  // Updated with the observed value.
  EXPECT_EQ(value.FetchAdd(3), 11);
  EXPECT_EQ(value.FetchSub(4), 14);
  EXPECT_EQ(value.FetchOr(0x20), 10);
  EXPECT_EQ(value.Load(), 0x2a);
  // 9 instrumented ops: Load, Store, Exchange, 2x CompareExchange, FetchAdd,
  // FetchSub, FetchOr, Load.
  EXPECT_EQ(agent.before(), 9u);
  EXPECT_EQ(agent.before(), agent.after());
}

// --- Per-variable-order address table ---

TEST(PerVariableTableTest, DistinctVariablesGetDistinctClocks) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 4;
  config.clock_count = 1024;  // Table capacity = 8192 slots.
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime(AgentKind::kPerVariableOrder, config, control);

  std::vector<int64_t> variables(500);
  std::set<uint32_t> clocks;
  for (const auto& v : variables) {
    clocks.insert(runtime.ClockOf(&v));
  }
  // int64_t variables occupy distinct 8-byte buckets, so each must get its
  // own clock: the collision-free property WoC gives up by hashing.
  EXPECT_EQ(clocks.size(), variables.size());
  EXPECT_EQ(runtime.VariablesMapped(), variables.size());
  EXPECT_EQ(runtime.TableOverflows(), 0u);
}

TEST(PerVariableTableTest, SameVariableAlwaysSameClock) {
  AgentConfig config;
  config.num_variants = 2;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime(AgentKind::kPerVariableOrder, config, control);

  int64_t variable = 0;
  const uint32_t first = runtime.ClockOf(&variable);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(runtime.ClockOf(&variable), first);
  }
  EXPECT_EQ(runtime.VariablesMapped(), 1u);
}

TEST(PerVariableTableTest, AdjacentWordsShareAnEightByteBucket) {
  AgentConfig config;
  config.num_variants = 2;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime(AgentKind::kPerVariableOrder, config, control);

  // Two 32-bit variables in one 64-bit line map to one clock — the paper's
  // deliberate CMPXCHG8B bucketing (§4.5) is preserved in the PVO table.
  alignas(8) int32_t pair[2] = {0, 0};
  EXPECT_EQ(runtime.ClockOf(&pair[0]), runtime.ClockOf(&pair[1]));
  EXPECT_EQ(runtime.VariablesMapped(), 1u);
}

TEST(PerVariableTableTest, SaturatedTableDegradesToSharedClocks) {
  AgentConfig config;
  config.num_variants = 2;
  config.clock_count = 1;  // Table capacity clamps to 8 slots.
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime(AgentKind::kPerVariableOrder, config, control);
  ASSERT_EQ(runtime.clock_count(), 8u);

  std::vector<int64_t> variables(64);
  for (const auto& v : variables) {
    const uint32_t clock = runtime.ClockOf(&v);
    EXPECT_LT(clock, runtime.clock_count());
  }
  // More variables than slots: the table must have overflowed, and the
  // fallback keeps returning valid (shared) clock ids rather than failing.
  EXPECT_GT(runtime.TableOverflows(), 0u);
  EXPECT_LE(runtime.VariablesMapped(), runtime.clock_count());
}

TEST(PerVariableTableTest, OverflowCountsVariablesNotLookups) {
  AgentConfig config;
  config.num_variants = 2;
  config.clock_count = 1;  // Table capacity clamps to 8 slots.
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime(AgentKind::kPerVariableOrder, config, control);

  // Fill the table, then find one address that overflows.
  std::vector<int64_t> variables(64);
  const int64_t* overflowed = nullptr;
  for (const auto& v : variables) {
    const uint64_t before = runtime.TableOverflows();
    runtime.ClockOf(&v);
    if (runtime.TableOverflows() > before) {
      overflowed = &v;
      break;
    }
  }
  ASSERT_NE(overflowed, nullptr);

  // Hammering the same saturated variable must not inflate the counter: it
  // reports variables, not calls (the old behaviour counted every lookup).
  const uint64_t after_first = runtime.TableOverflows();
  const uint32_t clock = runtime.ClockOf(overflowed);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(runtime.ClockOf(overflowed), clock);
  }
  EXPECT_EQ(runtime.TableOverflows(), after_first);
}

TEST(PerVariableTableTest, HugeClockCountClampsInsteadOfOverflowing) {
  // Small sizes behave as before: next power of two >= 8x clocks.
  EXPECT_EQ(PrivateClockTable::CapacityFor(1), 8u);
  EXPECT_EQ(PrivateClockTable::CapacityFor(1024), 8192u);
  EXPECT_EQ(PrivateClockTable::CapacityFor(1000), 8192u);
  // clock_count * 8 would wrap size_t here; the capacity must clamp to the
  // max table size (a power of two), not wrap to a tiny table with an
  // all-wrong mask (and NextPow2 must not loop forever on it).
  const size_t huge = PrivateClockTable::CapacityFor(SIZE_MAX / 2);
  ASSERT_GT(huge, 0u);
  EXPECT_EQ(huge & (huge - 1), 0u);
  EXPECT_EQ(huge, PrivateClockTable::CapacityFor(SIZE_MAX));
  EXPECT_LE(huge, size_t{1} << 28);
}

// --- Ticketed sharded recording (docs/DESIGN.md §8) ---

TEST(ShardedRecordingTest, TicketCounterMatchesOpsRecorded) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 2;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;

  TotalOrderRuntime to_runtime(config, control);
  auto to_master = to_runtime.CreateAgent(0);
  auto to_slave = to_runtime.CreateAgent(1);
  int var_a = 0;
  int var_b = 0;
  for (int i = 0; i < 10; ++i) {
    to_master->BeforeSyncOp(0, &var_a);
    to_master->AfterSyncOp(0, &var_a);
    to_master->BeforeSyncOp(1, &var_b);
    to_master->AfterSyncOp(1, &var_b);
  }
  // Every recorded op drew exactly one ticket; sequences are dense.
  EXPECT_EQ(to_runtime.SequencesIssued(), 20u);
  EXPECT_EQ(to_runtime.OpsRecorded(), 20u);
  // Replay drains both per-thread rings in ticket order.
  for (int i = 0; i < 10; ++i) {
    to_slave->BeforeSyncOp(0, &var_a);
    to_slave->AfterSyncOp(0, &var_a);
    to_slave->BeforeSyncOp(1, &var_b);
    to_slave->AfterSyncOp(1, &var_b);
  }
  EXPECT_EQ(to_runtime.stats().Aggregate().ops_replayed, 20u);

  PartialOrderRuntime po_runtime(config, control);
  auto po_master = po_runtime.CreateAgent(0);
  for (int i = 0; i < 7; ++i) {
    po_master->BeforeSyncOp(0, &var_a);
    po_master->AfterSyncOp(0, &var_a);
  }
  EXPECT_EQ(po_runtime.SequencesIssued(), 7u);
}

// Verdict and program output of a full MVEE run whose two threads contend
// on two mutexes.
std::string RecordingSweepResult(AgentKind kind) {
  MveeOptions options;
  options.num_variants = 2;
  options.agent = kind;
  options.enable_aslr = false;
  options.rendezvous_timeout = std::chrono::milliseconds(20000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(20000);
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    auto mutex_a = std::make_shared<Mutex>();
    auto mutex_b = std::make_shared<Mutex>();
    auto counter_a = std::make_shared<int>(0);
    auto counter_b = std::make_shared<int>(0);
    auto worker = [&](int which) {
      return [mutex_a, mutex_b, counter_a, counter_b, which](VariantEnv& wenv) {
        for (int i = 0; i < 40; ++i) {
          if ((i + which) % 2 == 0) {
            LockGuard<Mutex> guard(*mutex_a);
            ++*counter_a;
          } else {
            LockGuard<Mutex> guard(*mutex_b);
            ++*counter_b;
          }
        }
        wenv.Gettid();
      };
    };
    ThreadHandle a = env.Spawn(worker(0));
    ThreadHandle b = env.Spawn(worker(1));
    env.Join(a);
    env.Join(b);
    const int64_t fd = env.Open("recording_sweep", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, std::to_string(*counter_a) + "," + std::to_string(*counter_b));
    env.Close(fd);
  });
  EXPECT_TRUE(status.ok()) << AgentKindName(kind) << ": " << status.ToString();
  if (!status.ok()) {
    return "<failed>";
  }
  auto file = mvee.kernel().vfs().Open("recording_sweep", false);
  if (file == nullptr) {
    return "<missing>";
  }
  const auto contents = file->Contents();
  return std::string(contents.begin(), contents.end());
}

// A logical tid past max_threads must kill the variant with a reported
// configuration failure, not index past the tid-sized per-thread state
// (the monitor allocates tids from an unbounded counter).
TEST(ShardedRecordingTest, TidBeyondMaxThreadsKillsVariantLoudly) {
  for (AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                         AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
    AgentConfig config;
    config.num_variants = 2;
    config.max_threads = 2;
    config.buffer_capacity = 1 << 8;
    std::atomic<bool> abort{false};
    std::atomic<bool> reported{false};
    AgentControl control;
    control.abort_flag = &abort;
    control.on_stall = [&](const std::string&) { reported.store(true); };
    AgentFleet fleet(kind, config, control);
    auto master = fleet.CreateAgent(0);
    int var = 0;
    EXPECT_THROW(master->BeforeSyncOp(/*tid=*/2, &var), VariantKilled) << AgentKindName(kind);
    EXPECT_TRUE(reported.load()) << AgentKindName(kind);
  }
}

// A variant count past BroadcastRing's consumer limit must clamp coherently
// everywhere (agent runtimes AND the monitor's variant loop) instead of
// indexing past the runtimes' per-slave state.
TEST(ShardedRecordingTest, ExcessiveVariantCountClampsCoherently) {
  for (AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder}) {
    MveeOptions options;
    options.num_variants = 20;  // > 16 (1 master + kMaxConsumers slaves)
    options.agent = kind;
    options.enable_aslr = false;
    Mvee mvee(options);
    const Status status = mvee.Run([](VariantEnv& env) { env.Gettid(); });
    EXPECT_TRUE(status.ok()) << AgentKindName(kind) << ": " << status.ToString();
  }
}

TEST(ShardedRecordingTest, VerdictAndOutputEquivalenceUnderMvee) {
  for (AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder}) {
    EXPECT_EQ(RecordingSweepResult(kind), "40,40") << AgentKindName(kind);
  }
}

TEST(PerVariableTableTest, ConcurrentInsertsAgreeOnMapping) {
  AgentConfig config;
  config.num_variants = 2;
  config.clock_count = 2048;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  ClockRuntime runtime(AgentKind::kPerVariableOrder, config, control);

  constexpr size_t kVars = 256;
  std::vector<int64_t> variables(kVars);
  std::vector<std::vector<uint32_t>> seen(4, std::vector<uint32_t>(kVars));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kVars; ++i) {
        // Threads race to insert the same addresses in different orders.
        const size_t index = (t % 2 == 0) ? i : kVars - 1 - i;
        seen[t][index] = runtime.ClockOf(&variables[index]);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(runtime.VariablesMapped(), kVars);
}

}  // namespace
}  // namespace mvee
