// Tests for the offline record/replay facility (RecPlay-style, §6): record a
// multi-threaded schedule once, replay a later execution through the same
// schedule, round-trip the trace through serialization.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "mvee/agents/clock_agent.h"
#include "mvee/agents/offline_trace.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/rng.h"
#include "mvee/util/variant_killed.h"

namespace mvee {
namespace {

// Runs `threads` workers with the given agent; thread t executes a seeded
// pseudo-random sequence of critical sections and logs acquisition orders.
std::vector<std::vector<uint32_t>> RunScheduledProgram(SyncAgent* agent, uint32_t threads,
                                                       size_t lock_count, int ops) {
  std::vector<SpinLock> locks(lock_count);
  std::vector<std::vector<uint32_t>> logs(lock_count);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      SyncContext context{agent, nullptr, t};
      ScopedSyncContext scoped(&context);
      Rng rng(4000 + t);
      try {
        for (int i = 0; i < ops; ++i) {
          const size_t lock_index = rng.NextBelow(lock_count);
          locks[lock_index].Lock();
          logs[lock_index].push_back(t);
          locks[lock_index].Unlock();
        }
      } catch (const VariantKilled&) {
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  return logs;
}

TEST(OfflineTraceTest, RecordThenReplayReproducesSchedule) {
  OfflineRecorderAgent recorder(/*max_threads=*/4, /*clock_count=*/256);
  const auto recorded_logs = RunScheduledProgram(&recorder, 4, 6, 120);
  auto trace = recorder.TakeTrace();
  ASSERT_GT(trace->TotalEvents(), 0u);

  OfflineReplayAgent replayer(trace.get());
  const auto replayed_logs = RunScheduledProgram(&replayer, 4, 6, 120);
  EXPECT_EQ(recorded_logs, replayed_logs);
  EXPECT_EQ(replayer.EventsReplayed(), trace->TotalEvents());
}

// The offline trace and the online wall-of-clocks engine share one
// address->clock map, so a trace's clock ids name the same clocks the online
// master would have locked for the same addresses at the same wall size.
TEST(OfflineTraceTest, ClockIdsMatchOnlineWallOfClocks) {
  constexpr size_t kClocks = 97;  // Not a power of two: the fold is a modulo.
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 1;
  config.clock_count = kClocks;
  AgentControl control;
  ClockRuntime online(AgentKind::kWallOfClocks, config, control);
  OfflineRecorderAgent recorder(/*max_threads=*/1, kClocks);

  std::vector<int64_t> variables(512);
  for (const auto& v : variables) {
    recorder.BeforeSyncOp(0, &v);
    recorder.AfterSyncOp(0, &v);
  }
  const auto trace = recorder.TakeTrace();
  const auto& events = trace->ThreadEvents(0);
  ASSERT_EQ(events.size(), variables.size());
  for (size_t i = 0; i < variables.size(); ++i) {
    EXPECT_EQ(events[i].clock_id, online.ClockOf(&variables[i])) << "variable " << i;
  }
}

TEST(OfflineTraceTest, SerializationRoundTrip) {
  OfflineRecorderAgent recorder(4, 128);
  RunScheduledProgram(&recorder, 3, 4, 50);
  auto trace = recorder.TakeTrace();

  const std::vector<uint8_t> bytes = trace->Serialize();
  auto restored = SyncTrace::Deserialize(bytes);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->clock_count(), trace->clock_count());
  EXPECT_EQ(restored->TotalEvents(), trace->TotalEvents());
  for (uint32_t t = 0; t < trace->max_threads(); ++t) {
    ASSERT_EQ(restored->ThreadEvents(t).size(), trace->ThreadEvents(t).size());
    for (size_t i = 0; i < trace->ThreadEvents(t).size(); ++i) {
      EXPECT_EQ(restored->ThreadEvents(t)[i].clock_id, trace->ThreadEvents(t)[i].clock_id);
      EXPECT_EQ(restored->ThreadEvents(t)[i].time, trace->ThreadEvents(t)[i].time);
    }
  }
}

TEST(OfflineTraceTest, ReplayFromDeserializedTrace) {
  OfflineRecorderAgent recorder(4, 256);
  const auto recorded_logs = RunScheduledProgram(&recorder, 4, 3, 80);
  const std::vector<uint8_t> bytes = recorder.TakeTrace()->Serialize();

  auto restored = SyncTrace::Deserialize(bytes);
  ASSERT_NE(restored, nullptr);
  OfflineReplayAgent replayer(restored.get());
  const auto replayed_logs = RunScheduledProgram(&replayer, 4, 3, 80);
  EXPECT_EQ(recorded_logs, replayed_logs);
}

TEST(OfflineTraceTest, DeserializeRejectsGarbage) {
  EXPECT_EQ(SyncTrace::Deserialize({}), nullptr);
  EXPECT_EQ(SyncTrace::Deserialize({1, 2, 3, 4}), nullptr);
  std::vector<uint8_t> truncated = [] {
    OfflineRecorderAgent recorder(2, 64);
    RunScheduledProgram(&recorder, 2, 2, 10);
    auto bytes = recorder.TakeTrace()->Serialize();
    bytes.resize(bytes.size() / 2);
    return bytes;
  }();
  EXPECT_EQ(SyncTrace::Deserialize(truncated), nullptr);
}

TEST(OfflineTraceTest, ExhaustedTraceKillsExtraOps) {
  OfflineRecorderAgent recorder(1, 64);
  RunScheduledProgram(&recorder, 1, 1, 5);
  auto trace = recorder.TakeTrace();

  bool stalled = false;
  AgentControl control;
  std::atomic<bool> abort{false};
  control.abort_flag = &abort;
  control.on_stall = [&](const std::string&) { stalled = true; };
  OfflineReplayAgent replayer(trace.get(), control);

  SyncContext context{&replayer, nullptr, 0};
  ScopedSyncContext scoped(&context);
  SpinLock lock;
  // 5 recorded critical sections = 10 events (uncontended CAS + unlock
  // store); replay them, then one extra op must throw.
  for (int i = 0; i < 5; ++i) {
    lock.Lock();
    lock.Unlock();
  }
  EXPECT_THROW(lock.Lock(), VariantKilled);
  EXPECT_TRUE(stalled);
}

TEST(OfflineTraceTest, EmptyTraceSerializationIsStable) {
  SyncTrace trace(8, 32);
  const auto bytes = trace.Serialize();
  auto restored = SyncTrace::Deserialize(bytes);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->TotalEvents(), 0u);
  EXPECT_EQ(restored->max_threads(), 8u);
}

}  // namespace
}  // namespace mvee
