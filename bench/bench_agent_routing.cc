// Per-variable agent routing ablation (docs/DESIGN.md §11).
//
// One mixed-contention kernel, run seven ways, every leg through the one
// dispatch-routed fleet:
//   - four fixed legs (TO / PO / WoC / PVO): no plan and the controller off,
//     so every variable rides the default route of that kind,
//   - the fleet seeded by the analysis-derived oracle plan (controller off:
//     pure static routing),
//   - the fleet deliberately misseeded (everything on total-order,
//     controller off): the cost of a wrong static answer,
//   - the misseeded fleet with the runtime controller on: promotion/demotion
//     walking the routes back to sanity mid-run.
//
// The workload is built so no single fixed agent is right everywhere: a hot
// lock two-plus threads hammer (TO territory), an uncontended shared counter
// (per-variable territory), and per-thread scratch variables a static proof
// can route to the null agent. The headline number — and the CI gate
// (MVEE_BENCH_AGENTS_MIN_ADAPTIVE_SPEEDUP) — is oracle-adaptive throughput
// over the best fixed leg.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mvee/analysis/assignment_plan.h"
#include "mvee/analysis/mir.h"
#include "mvee/analysis/syncop_analysis.h"
#include "mvee/sync/instrumented.h"
#include "mvee/sync/primitives.h"

namespace {

using namespace mvee;
using namespace mvee::bench;

constexpr uint32_t kThreads = 4;

// The MIR model of the kernel below, for the analysis pipeline to derive the
// oracle plan from. Object names match the program's Bind names — that is
// the contract that carries a static verdict to a runtime route.
MirModule BuildKernelModule() {
  MirBuilder builder("adaptive_kernel");
  const int32_t hot = builder.Object("hot");
  const int32_t cold = builder.Object("cold");
  std::vector<int32_t> locals;
  for (uint32_t t = 0; t < kThreads; ++t) {
    locals.push_back(builder.Object("local" + std::to_string(t), MirStorage::kStack));
  }

  // Two functions RMW the hot lock word -> shared-hot -> total-order.
  builder.Function("worker");
  const int32_t r_hot = builder.Reg();
  builder.AddrOf(r_hot, hot).LockRmw(r_hot, "worker:1");
  // One store site on the shared counter -> uncontended-shared -> PVO.
  const int32_t r_cold = builder.Reg();
  builder.AddrOf(r_cold, cold).Store(r_cold, "worker:2");
  // Stack scratch, all sites in one function -> thread-local -> null route.
  for (uint32_t t = 0; t < kThreads; ++t) {
    const int32_t r_local = builder.Reg();
    builder.AddrOf(r_local, locals[t])
        .LockRmw(r_local, ("worker:l" + std::to_string(t)).c_str());
  }

  builder.Function("helper");
  const int32_t h_hot = builder.Reg();
  builder.AddrOf(h_hot, hot).LockRmw(h_hot, "helper:1");

  return builder.Build();
}

AgentAssignmentPlan DeriveOraclePlan() {
  const MirModule module = BuildKernelModule();
  SyncOpReport report;
  report.module_name = module.name;
  for (size_t i = 0; i < module.objects.size(); ++i) {
    report.sync_objects.insert(static_cast<int32_t>(i));
  }
  const AssignmentPlanReport derived = DeriveAssignmentPlan(module, report);
  std::printf("oracle plan (analysis-derived):\n%s", FormatAssignmentPlan(derived).c_str());
  return derived.plan;
}

AgentAssignmentPlan MisseededPlan() {
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"hot", AgentKind::kTotalOrder, "misseeded"});
  plan.assignments.push_back({"cold", AgentKind::kTotalOrder, "misseeded"});
  for (uint32_t t = 0; t < kThreads; ++t) {
    plan.assignments.push_back(
        {"local" + std::to_string(t), AgentKind::kTotalOrder, "misseeded"});
  }
  return plan;
}

// The mixed-contention kernel. Per iteration and thread: one hot-lock
// critical section (contended RMW + store), sixteen scratch RMWs on the
// thread's own variable (the dominant, statically-thread-local traffic the
// null route exists for — the paper's Table 1 point that most sync ops in
// real programs never need cross-variant ordering), and a shared-counter
// RMW every fourth pass (uncontended shared).
Program MakeKernel(int iters) {
  return [iters](VariantEnv& env) {
    auto hot = std::make_shared<SpinLock>();
    auto counter = std::make_shared<int64_t>(0);
    auto cold = std::make_shared<InstrumentedAtomic<int64_t>>();
    hot->Bind("hot");
    cold->Bind("cold");
    std::vector<ThreadHandle> workers;
    for (uint32_t t = 0; t < kThreads; ++t) {
      workers.push_back(env.Spawn([hot, counter, cold, t, iters](VariantEnv&) {
        InstrumentedAtomic<int64_t> scratch;
        scratch.Bind(("local" + std::to_string(t)).c_str());
        for (int i = 0; i < iters; ++i) {
          {
            LockGuard<SpinLock> guard(*hot);
            ++*counter;
          }
          for (int s = 0; s < 16; ++s) {
            scratch.FetchAdd(1);
          }
          if (i % 4 == 0) {
            cold->FetchAdd(1);
          }
        }
      }));
    }
    for (ThreadHandle& worker : workers) {
      env.Join(worker);
    }
  };
}

struct LegResult {
  std::string label;
  double seconds = -1.0;
  uint64_t sync_ops = 0;
  uint64_t migrations = 0;
  uint64_t record_stalls = 0;
  uint64_t replay_stalls = 0;
  bool ok = false;
};

LegResult RunLegOnce(const std::string& label, int iters, AgentKind agent,
                     const AgentAssignmentPlan* plan, uint32_t controller_interval_ms) {
  MveeOptions options;
  options.num_variants = 2;
  options.agent = agent;
  options.enable_aslr = false;
  options.rendezvous_timeout = std::chrono::milliseconds(120000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(120000);
  options.agent_config.buffer_capacity = 1 << 16;
  options.agent_config.migrate_interval_ms = controller_interval_ms;
  // Low enough that a sampling interval on a small host still clears it;
  // the default (1 << 16) is sized for production op rates.
  options.agent_config.migrate_min_ops = 1024;
  if (plan != nullptr) {
    options.agent_plan = *plan;
  }
  Mvee mvee(options);
  LegResult result;
  result.label = label;
  result.ok = mvee.Run(MakeKernel(iters)).ok();
  if (result.ok) {
    result.seconds = mvee.report().wall_seconds;
    result.sync_ops = mvee.report().sync_ops_recorded;
    result.migrations = mvee.report().agent_migrations;
    result.record_stalls = mvee.report().record_stalls;
    result.replay_stalls = mvee.report().replay_stalls;
  }
  return result;
}

// Min-of-N wall time per leg (MVEE_BENCH_ADAPTIVE_REPS, default 2): the
// shared host's scheduling noise at these sub-second leg times is larger
// than the effect under measurement.
LegResult RunLeg(const std::string& label, int iters, AgentKind agent,
                 const AgentAssignmentPlan* plan, uint32_t controller_interval_ms) {
  const int reps = static_cast<int>(EnvInt("MVEE_BENCH_ADAPTIVE_REPS", 2));
  LegResult best;
  for (int rep = 0; rep < reps; ++rep) {
    LegResult result = RunLegOnce(label, iters, agent, plan, controller_interval_ms);
    if (result.ok && (!best.ok || result.seconds < best.seconds)) {
      best = result;
    }
    if (!best.ok) {
      best = result;
    }
  }
  return best;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kError);
  PrintHeader("Per-variable agent routing: fixed routes vs seeded vs controller");

  const int iters =
      static_cast<int>(EnvInt("MVEE_BENCH_ADAPTIVE_ITERS",
                              static_cast<int64_t>(25000 * BenchScale(2.0))));
  std::printf("threads=%u iters/thread=%d variants=2\n\n", kThreads, iters);

  const AgentAssignmentPlan oracle = DeriveOraclePlan();
  const AgentAssignmentPlan misseeded = MisseededPlan();

  std::vector<LegResult> legs;
  for (AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                         AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
    legs.push_back(RunLeg(std::string("fixed-") + AgentKindName(kind), iters, kind, nullptr,
                          /*controller_interval_ms=*/0));
  }
  legs.push_back(RunLeg("adaptive-oracle", iters, AgentKind::kWallOfClocks, &oracle,
                        /*controller_interval_ms=*/0));
  legs.push_back(RunLeg("adaptive-misseeded", iters, AgentKind::kWallOfClocks, &misseeded,
                        /*controller_interval_ms=*/0));
  legs.push_back(RunLeg("adaptive-controller", iters, AgentKind::kWallOfClocks, &misseeded,
                        /*controller_interval_ms=*/10));

  // One canonical op count for every leg's rate: the kernel executes the
  // same instrumented ops regardless of routing, but null routes record
  // nothing, so a leg's own sync_ops_recorded undercounts its work. Use the
  // largest fixed leg's count (all ops recorded) as the denominator.
  uint64_t canonical_ops = 0;
  for (const LegResult& leg : legs) {
    if (leg.ok && leg.sync_ops > canonical_ops) {
      canonical_ops = leg.sync_ops;
    }
  }

  std::printf("\n%-20s %10s %14s %10s %10s %12s\n", "leg", "seconds", "ops/sec", "rec-stall",
              "rep-stall", "migrations");
  std::vector<AgentBenchResult> json;
  double best_fixed = -1.0;
  double oracle_seconds = -1.0;
  for (const LegResult& leg : legs) {
    if (!leg.ok) {
      std::printf("%-20s %10s\n", leg.label.c_str(), "FAIL");
      continue;
    }
    const double rate = leg.seconds > 0 ? static_cast<double>(canonical_ops) / leg.seconds : 0;
    std::printf("%-20s %10.3f %14.0f %10llu %10llu %12llu\n", leg.label.c_str(), leg.seconds,
                rate, static_cast<unsigned long long>(leg.record_stalls),
                static_cast<unsigned long long>(leg.replay_stalls),
                static_cast<unsigned long long>(leg.migrations));
    json.push_back({leg.label, "mixed-contention", rate, leg.record_stalls, leg.replay_stalls});
    if (leg.label.rfind("fixed-", 0) == 0 && (best_fixed < 0 || leg.seconds < best_fixed)) {
      best_fixed = leg.seconds;
    }
    if (leg.label == "adaptive-oracle") {
      oracle_seconds = leg.seconds;
    }
  }
  AppendAgentsJson(json);

  if (best_fixed > 0 && oracle_seconds > 0) {
    const double speedup = best_fixed / oracle_seconds;
    std::printf("\nadaptive-oracle vs best fixed fleet: %.2fx\n", speedup);
    // CI gate: report-only unless the env sets a floor.
    const char* env = std::getenv("MVEE_BENCH_AGENTS_MIN_ADAPTIVE_SPEEDUP");
    const double floor = env != nullptr ? std::atof(env) : 0.0;
    if (floor > 0 && speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: adaptive speedup %.2fx below MVEE_BENCH_AGENTS_MIN_ADAPTIVE_SPEEDUP"
                   " %.2fx\n", speedup, floor);
      return 1;
    }
  } else {
    std::fprintf(stderr, "FAIL: gate legs missing (best_fixed=%.3f oracle=%.3f)\n", best_fixed,
                 oracle_seconds);
    return 1;
  }
  return 0;
}
