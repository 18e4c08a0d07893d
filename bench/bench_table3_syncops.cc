// Regenerates paper Table 3: sync ops identified per module by the two-stage
// analysis — type (i) LOCK-prefixed, type (ii) XCHG, type (iii) aliasing
// aligned load/stores — over the synthetic binary corpus, plus the worked
// examples of Listings 1 and 2 and the _Atomic propagation workflow
// (§4.3.1).
//
// The identified sync ops are only worth finding because record/replay of
// each one is cheap, so the bench closes with the record+replay fast-path
// rate of every agent kind and the TO/PO master's recording scaling, and
// seeds BENCH_agents.json from both.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "mvee/agents/agent_fleet.h"
#include "mvee/analysis/atomic_check.h"
#include "mvee/analysis/corpus.h"
#include "mvee/analysis/field_sensitive.h"
#include "mvee/analysis/syncop_analysis.h"

namespace {

// Master record-path rate: the master agent records batches while three
// slave variants replay them between batches (their cursors are what gate
// every push). Single-threaded and best-of-3, so the number is the pure
// instruction-path cost of a recorded sync op, free of scheduler noise on
// small hosts.
mvee::bench::AgentBenchResult MeasureAgentRecordRate(mvee::AgentKind kind, size_t total_ops) {
  using namespace mvee;
  constexpr uint32_t kVariants = 4;  // Paper Table 1's widest configuration.
  AgentConfig config;
  config.num_variants = kVariants;
  config.max_threads = 1;
  config.buffer_capacity = 1 << 16;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(kind, config, control);
  auto master = fleet.CreateAgent(0);
  std::vector<std::unique_ptr<SyncAgent>> slaves;
  for (uint32_t v = 1; v < kVariants; ++v) {
    slaves.push_back(fleet.CreateAgent(v));
  }

  const size_t batch = 1 << 12;  // Must stay below buffer_capacity.
  int sync_var = 0;
  double best_seconds = 0.0;
  AgentStatsSnapshot best_stalls;  // Stall deltas of the best rep, so the
                                   // JSON pairs quantities from one rep.
  for (int rep = 0; rep < 3; ++rep) {
    const AgentStatsSnapshot before = fleet.StatsSnapshot();
    double record_seconds = 0.0;
    for (size_t done = 0; done < total_ops; done += batch) {
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < batch; ++i) {
        master->BeforeSyncOp(0, &sync_var);
        master->AfterSyncOp(0, &sync_var);
      }
      record_seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      start).count();
      for (auto& slave : slaves) {
        for (size_t i = 0; i < batch; ++i) {
          slave->BeforeSyncOp(0, &sync_var);
          slave->AfterSyncOp(0, &sync_var);
        }
      }
    }
    if (best_seconds == 0.0 || record_seconds < best_seconds) {
      best_seconds = record_seconds;
      const AgentStatsSnapshot after = fleet.StatsSnapshot();
      best_stalls.record_stalls = after.record_stalls - before.record_stalls;
      best_stalls.replay_stalls = after.replay_stalls - before.replay_stalls;
    }
  }
  bench::AgentBenchResult result;
  result.kind = AgentKindName(kind);
  result.mode = "cached";
  result.ops_per_sec = total_ops / best_seconds;
  result.record_stalls = best_stalls.record_stalls;
  result.replay_stalls = best_stalls.replay_stalls;
  return result;
}

// Multi-threaded master record throughput under concurrent replay: the §4.5
// scaling claim, measured. 2 variants (1 master + 1 slave), `threads`
// threads each; every master thread records a burst on its own
// cache-padded sync variable — the *program* has no contention, so every
// stall the master takes is the agent's — while the slave variant replays
// concurrently. Timed: until the masters finish recording (the master
// variant is the one serving real traffic; §4.5 wants its overhead
// decoupled from replay).
//
// The burst equals one sync buffer's capacity, so each master absorbs its
// whole burst without waiting on replay. The gate's denominator is a rig
// with one master thread recording the same total ops into one ring as
// large as all the threads' rings together, its slave replaying after the
// timed burst. On 4 cores the per-variable shard locks keep about 0.4 of
// that one-thread rate at full load; the retired process-wide record lock,
// which serialized every op and bounced its cache line between cores,
// kept under 0.2 (docs/perf.md, "Retired baselines").
// The one-thread rig replays afterwards because a slave tailing a lone
// master makes the master's rate bimodal on a shared 4-core VM: TO read
// 4-5M op/s back to back, 16-22M when each rep followed seconds of idle.
class RecordingRig {
 public:
  struct Rep {
    double seconds = 0.0;
    uint64_t record_stalls = 0;
    uint64_t replay_stalls = 0;
  };

  RecordingRig(mvee::AgentKind kind, uint32_t threads, size_t ops_per_thread,
               bool concurrent_replay)
      : threads_(threads),
        ops_per_thread_(ops_per_thread),
        concurrent_replay_(concurrent_replay),
        vars_(threads) {
    mvee::AgentConfig config;
    config.num_variants = 2;
    config.max_threads = threads;
    config.buffer_capacity = ops_per_thread;  // per sync buffer, WoC convention
    // PO's window as large as the rig's whole ring space: the rig measures
    // recording, and a one-thread master whose slave replays afterwards
    // would otherwise block at the window.
    config.po_window = threads * ops_per_thread;
    config.replay_deadline = std::chrono::milliseconds(120000);
    fleet_ = std::make_unique<mvee::AgentFleet>(kind, config, mvee::AgentControl{});
    master_ = fleet_->CreateAgent(0);
    slave_ = fleet_->CreateAgent(1);
  }

  uint64_t OpsPerRound() const { return static_cast<uint64_t>(threads_) * ops_per_thread_; }

  // Runs `rounds` record bursts; returns the masters' recording time and the
  // stalls taken meanwhile.
  Rep TimedRounds(int rounds) {
    const mvee::AgentStatsSnapshot before = fleet_->StatsSnapshot();
    Rep rep;
    for (int round = 0; round < rounds; ++round) {
      std::atomic<uint32_t> ready{0};
      std::atomic<bool> go{false};
      std::vector<std::thread> masters;
      std::vector<std::thread> slaves;
      auto burst = [&](mvee::SyncAgent* agent, uint32_t t) {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (size_t i = 0; i < ops_per_thread_; ++i) {
          agent->BeforeSyncOp(t, &vars_[t].value);
          agent->AfterSyncOp(t, &vars_[t].value);
        }
      };
      for (uint32_t t = 0; t < threads_; ++t) {
        masters.emplace_back(burst, master_.get(), t);
        if (concurrent_replay_) {
          slaves.emplace_back(burst, slave_.get(), t);
        }
      }
      while (ready.load() != (concurrent_replay_ ? 2 : 1) * threads_) {
      }
      const auto start = std::chrono::steady_clock::now();
      go.store(true, std::memory_order_release);
      for (auto& thread : masters) {
        thread.join();
      }
      rep.seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      // Tail drain (untimed): the slave variant finishes the round so the
      // next one starts with empty rings — and re-verifies that the recorded
      // streams replay cleanly at this scale.
      for (uint32_t t = 0; !concurrent_replay_ && t < threads_; ++t) {
        slaves.emplace_back(burst, slave_.get(), t);
      }
      for (auto& thread : slaves) {
        thread.join();
      }
    }
    const mvee::AgentStatsSnapshot after = fleet_->StatsSnapshot();
    rep.record_stalls = after.record_stalls - before.record_stalls;
    rep.replay_stalls = after.replay_stalls - before.replay_stalls;
    return rep;
  }

 private:
  // One cache-line-padded sync variable per thread.
  struct alignas(64) PaddedVar {
    int value = 0;
  };

  const uint32_t threads_;
  const size_t ops_per_thread_;
  const bool concurrent_replay_;
  std::vector<PaddedVar> vars_;
  std::unique_ptr<mvee::AgentFleet> fleet_;
  std::unique_ptr<mvee::SyncAgent> master_;
  std::unique_ptr<mvee::SyncAgent> slave_;
};

mvee::bench::AgentBenchResult ToResult(mvee::AgentKind kind, uint32_t threads,
                                       uint64_t ops, const RecordingRig::Rep& best) {
  mvee::bench::AgentBenchResult result;
  result.kind = mvee::AgentKindName(kind);
  result.mode = "record-sharded-" + std::to_string(threads) + "t";
  result.ops_per_sec = static_cast<double>(ops) / best.seconds;
  result.record_stalls = best.record_stalls;
  result.replay_stalls = best.replay_stalls;
  return result;
}

}  // namespace

int main() {
  using namespace mvee;

  std::printf("\n================================================================\n");
  std::printf("Table 3: identified sync ops per module (paper values in parens)\n");
  std::printf("================================================================\n");
  std::printf("%-22s %13s %13s %13s %9s\n", "module", "(i) LOCK", "(ii) XCHG",
              "(iii) ld/st", "unmarked");

  const auto specs = Table3Specs();
  for (const auto& spec : specs) {
    const SyncOpReport report = IdentifySyncOps(BuildSyntheticModule(spec));
    std::printf("%-22s %5zu (%5zu) %5zu (%5zu) %5zu (%5zu) %9zu\n", report.module_name.c_str(),
                report.type_i.size(), spec.type_i, report.type_ii.size(), spec.type_ii,
                report.type_iii.size(), spec.type_iii, report.unmarked_memops);
  }

  std::printf("\n--- Worked examples (paper Listings 1 & 2) ---\n");
  {
    const SyncOpReport listing1 = IdentifySyncOps(BuildListing1Module());
    std::printf("listing1 (ad-hoc spinlock): type(i)=%zu type(iii)=%zu; "
                "stage 2 marked the unlock store at %s\n",
                listing1.type_i.size(), listing1.type_iii.size(),
                listing1.type_iii.empty() ? "<missed!>"
                                          : listing1.type_iii[0].source_line.c_str());
  }
  {
    const SyncOpReport base = IdentifySyncOps(BuildListing2Module());
    SyncOpAnalysisOptions volatile_opt;
    volatile_opt.treat_volatile_as_sync = true;
    const SyncOpReport extended = IdentifySyncOps(BuildListing2Module(), volatile_opt);
    std::printf("listing2 (volatile condvar): base analysis found %zu (documented "
                "limitation), volatile extension found %zu\n",
                base.TotalSyncOps(), extended.TotalSyncOps());
  }

  std::printf("\n--- _Atomic qualifier propagation (Figure 3 workflow) ---\n");
  for (const auto& spec : specs) {
    const MirModule module = BuildSyntheticModule(spec);
    const SyncOpReport report = IdentifySyncOps(module);
    const PropagationResult propagation = PropagateQualifiers(module, report.sync_objects);
    std::printf("%-22s qualified %3zu objects, %4zu pointers, fixpoint in %d compiles, "
                "%zu hard errors\n",
                module.name.c_str(), propagation.qualified_objects.size(),
                propagation.qualified_regs.size(), propagation.iterations,
                propagation.hard_errors.size());
  }

  std::printf("\n--- Heap field-sensitivity (§4.3.1's DSA/SVF complaint) ---\n");
  std::printf("STL refcounting pattern (§5.3): heap nodes, LOCK XADD on field 0,\n"
              "plain payload accesses on fields 1..4. Spurious marks per analysis:\n");
  {
    const RefcountHeapCorpus corpus = BuildRefcountHeapModule(
        /*nodes=*/32, /*payload_fields=*/4, /*accesses_per_field=*/3);
    const SyncOpReport steensgaard = IdentifySyncOps(corpus.module);
    const SyncOpReport andersen = IdentifySyncOpsAndersen(corpus.module);
    const SyncOpReport sensitive = IdentifySyncOpsFieldSensitive(corpus.module);
    const size_t total_plain = corpus.payload_memops;
    auto spurious = [&](const SyncOpReport& report) {
      return report.type_iii.size() - corpus.real_type_iii;
    };
    std::printf("  ground truth: %zu real type (iii), %zu plain payload memops\n",
                corpus.real_type_iii, total_plain);
    std::printf("  %-28s type(iii)=%4zu  spurious=%4zu (%5.1f%% of payload)\n",
                "steensgaard (DSA-style)", steensgaard.type_iii.size(),
                spurious(steensgaard), 100.0 * spurious(steensgaard) / total_plain);
    std::printf("  %-28s type(iii)=%4zu  spurious=%4zu (%5.1f%% of payload)\n",
                "andersen (SVF-as-queried)", andersen.type_iii.size(), spurious(andersen),
                100.0 * spurious(andersen) / total_plain);
    std::printf("  %-28s type(iii)=%4zu  spurious=%4zu (%5.1f%% of payload)\n",
                "andersen field-sensitive", sensitive.type_iii.size(), spurious(sensitive),
                100.0 * spurious(sensitive) / total_plain);
    std::printf("  (the paper reports \"the majority of type (iii) instructions that\n"
                "   target heap-allocated variables\" are spuriously marked by both\n"
                "   DSA and SVF; field-granular heap queries eliminate that.)\n");
  }

  std::vector<bench::AgentBenchResult> json_entries;

  std::printf("\n--- Master record path per agent, 4 variants ---\n");
  {
    constexpr AgentKind kKinds[] = {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                                    AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder};
    const size_t total_ops = 1 << 21;
    std::printf("%-22s %14s\n", "agent", "op/s");
    for (const AgentKind kind : kKinds) {
      MeasureAgentRecordRate(kind, 1 << 17);  // warmup
      const bench::AgentBenchResult rate = MeasureAgentRecordRate(kind, total_ops);
      std::printf("%-22s %13.2fM\n", rate.kind.c_str(), rate.ops_per_sec / 1e6);
      json_entries.push_back(rate);
    }
  }

  std::printf("\n--- Recording scaling: TO/PO master at 2 variants x 8 threads vs one "
              "thread recording the same total ops (docs/DESIGN.md §8) ---\n");
  // Gate for CI: MVEE_BENCH_AGENTS_MIN_SCALING fails the run when, for
  // either agent, the 8-thread record rate divided by the one-thread rate
  // falls below the given factor (0/unset = report only). The retired
  // global-lock recorder's ratio is in docs/perf.md ("Retired baselines").
  double min_scaling = 0.0;
  if (const char* env = std::getenv("MVEE_BENCH_AGENTS_MIN_SCALING")) {
    min_scaling = std::atof(env);
  }
  bool gate_ok = true;
  {
    constexpr uint32_t kThreads = 8;
    const size_t ops_per_thread = static_cast<size_t>(
        bench::EnvInt("MVEE_BENCH_AGENTS_OPS", 4096));
    constexpr int kRounds = 4;
    constexpr int kReps = 20;
    std::printf("%-22s %14s %14s %9s\n", "agent", "1-thread op/s", "8-thread op/s",
                "scaling");
    for (const AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder}) {
      RecordingRig one(kind, 1, kThreads * ops_per_thread, /*concurrent_replay=*/false);
      RecordingRig full(kind, kThreads, ops_per_thread, /*concurrent_replay=*/true);
      bench::WarmUp([&] {
        one.TimedRounds(1);
        full.TimedRounds(1);
      });
      // Alternating reps, best of each: a slow phase of a shared host hits
      // both rigs instead of deciding the ratio.
      RecordingRig::Rep best_one;
      RecordingRig::Rep best_full;
      for (int rep = 0; rep < kReps; ++rep) {
        const RecordingRig::Rep one_rep = one.TimedRounds(kRounds);
        const RecordingRig::Rep full_rep = full.TimedRounds(kRounds);
        if (best_one.seconds == 0.0 || one_rep.seconds < best_one.seconds) {
          best_one = one_rep;
        }
        if (best_full.seconds == 0.0 || full_rep.seconds < best_full.seconds) {
          best_full = full_rep;
        }
      }
      const bench::AgentBenchResult one_result =
          ToResult(kind, 1, one.OpsPerRound() * kRounds, best_one);
      const bench::AgentBenchResult full_result =
          ToResult(kind, kThreads, full.OpsPerRound() * kRounds, best_full);
      const double scaling = full_result.ops_per_sec / one_result.ops_per_sec;
      std::printf("%-22s %13.2fM %13.2fM %8.2fx\n", full_result.kind.c_str(),
                  one_result.ops_per_sec / 1e6, full_result.ops_per_sec / 1e6, scaling);
      json_entries.push_back(one_result);
      json_entries.push_back(full_result);
      if (min_scaling > 0.0 && scaling < min_scaling) {
        std::fprintf(stderr,
                     "FAIL: %s 8-thread recording scaling %.2fx below required %.2fx\n",
                     full_result.kind.c_str(), scaling, min_scaling);
        gate_ok = false;
      }
    }
  }

  bench::WriteAgentsJson(json_entries);
  return gate_ok ? 0 : 1;
}
