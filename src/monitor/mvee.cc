#include "mvee/monitor/mvee.h"

#include <chrono>
#include <map>
#include <utility>

#include "mvee/util/fault_injection.h"
#include "mvee/util/log.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

namespace {

// Routes the sync primitives' futex needs through the monitor as sys_futex
// traps (replicated class).
class EnvFutexHook final : public FutexHook {
 public:
  explicit EnvFutexHook(VariantEnv* env) : env_(env) {}

  int64_t FutexWait(const std::atomic<int32_t>* word, int32_t expected) override {
    return env_->FutexWait(word, expected);
  }
  int64_t FutexWake(const std::atomic<int32_t>* word, int32_t count) override {
    return env_->FutexWake(word, count);
  }

 private:
  VariantEnv* const env_;
};

}  // namespace

Mvee::Mvee(const MveeOptions& options, VirtualKernel* external_kernel) : options_(options) {
  if (external_kernel != nullptr) {
    kernel_ = external_kernel;
  } else {
    owned_kernel_ = std::make_unique<VirtualKernel>(options_.seed);
    kernel_ = owned_kernel_.get();
  }

  // Agent runtime shared by all variants (the sync buffers of §4.5). The
  // agent runtimes clamp their config (ValidatedAgentConfig); the variant
  // loop below must agree with the clamped count, or CreateAgent would
  // index past the runtime's per-slave state.
  AgentConfig agent_config = options_.agent_config;
  agent_config.num_variants = options_.num_variants;
  agent_config = ValidatedAgentConfig(agent_config);
  options_.num_variants = agent_config.num_variants;

  // Failure policy must be installed before any variant thread exists: the
  // live mask is consulted on every rendezvous (docs/DESIGN.md §9).
  reporter_.ConfigurePolicy(options_.on_variant_failure, options_.min_survivors,
                            options_.num_variants);

  AgentControl control;
  control.abort_flag = reporter_.abort_flag();
  control.live_mask = reporter_.live_mask_ptr();
  control.on_stall = [this](const std::string& detail) {
    reporter_.Report(StatusCode::kTimeout, "sync-op replay stall: " + detail);
  };
  fleet_ = std::make_unique<AgentFleet>(options_.agent, agent_config, control,
                                        &options_.agent_plan);

  // Variant states: kernel process + simulated diversity + injected agent.
  for (uint32_t v = 0; v < options_.num_variants; ++v) {
    auto state = std::make_unique<VariantState>();
    state->diversity = std::make_unique<DiversityMap>(v, options_.seed, options_.enable_aslr,
                                                      options_.enable_dcl);
    state->process = std::make_unique<ProcessState>(
        /*pid=*/1000, state->diversity->heap_base(), state->diversity->map_base());
    state->process->set_variant_index(v);
    state->agent = fleet_->CreateAgent(v);
    variants_.push_back(std::move(state));
  }

  shared_.options = &options_;
  shared_.kernel = kernel_;
  shared_.reporter = &reporter_;
  for (auto& variant : variants_) {
    shared_.processes.push_back(variant->process.get());
  }
  // Ordering domains carry all syscall-ordering state; the global-clock
  // baseline runs through the single kFdNamespace domain (thread_set.h).
  order_domains_ = std::make_unique<OrderDomainTable>(options_.num_variants);
  shared_.order_domains = order_domains_.get();

  // Shutdown fan-out: wake anything blocked in the kernel.
  reporter_.AddShutdownHook([this] { kernel_->ShutdownBlockedCalls(); });

  // Excision fan-out (docs/DESIGN.md §9): everything keyed on the dead
  // variant must stop waiting for it. Runs on the excising thread, outside
  // the reporter lock.
  reporter_.AddExcisionHook([this](uint32_t variant) {
    {
      // Every thread set re-evaluates round completeness against the
      // shrunken live mask (and the loose leader's backpressure detaches the
      // dead follower's cursor).
      std::lock_guard<std::mutex> lock(sets_mutex_);
      for (auto& [tid, monitor] : thread_sets_) {
        monitor->OnVariantExcised(variant);
      }
    }
    // Agent replay: survivors' ring merges skip the dead variant's records;
    // its own replay threads unwind at their next should_unwind check.
    fleet_->DetachVariant(variant);
    // Syscall-ordering replay clocks: survivors' end-of-run reclamation must
    // not wait for clocks the dead variant will never advance.
    order_domains_->DetachVariant(variant);
    // Kernel side: spurious-wake every futex waiter (legal per futex
    // semantics) so any of the dead variant's threads parked in sys_futex
    // re-check, observe the excision and unwind — and repair any reader
    // leases its threads abandoned mid-call.
    kernel_->NudgeBlockedCalls();
    if (variant < variants_.size()) {
      variants_[variant]->process->fds().ReleaseAbandonedLeases();
    }
  });
}

Mvee::~Mvee() {
  // Defensive: make sure no watchdog or variant thread is left running, and
  // never leak an armed fault plan into the next run in this process.
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
  if (armed_faults_) {
    FaultInjector::Global().Disarm();
  }
  for (auto& variant : variants_) {
    std::lock_guard<std::mutex> lock(variant->threads_mutex);
    for (auto& [tid, thread] : variant->threads) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }
}

std::string Mvee::DumpState() {
  std::ostringstream out;
  out << "kernel futex waiters: " << kernel_->futexes().WaiterCount() << " [" << kernel_->futexes().DebugString() << "]\n";
  std::lock_guard<std::mutex> lock(sets_mutex_);
  for (auto& [tid, monitor] : thread_sets_) {
    out << "  " << monitor->DebugString() << "\n";
  }
  return out.str();
}

ThreadSetMonitor* Mvee::GetThreadSet(uint32_t tid) {
  if (tid < kTidCacheSize) {
    ThreadSetMonitor* cached = set_cache_[tid].load(std::memory_order_acquire);
    if (cached != nullptr) [[likely]] {
      return cached;
    }
  }
  std::lock_guard<std::mutex> lock(sets_mutex_);
  auto it = thread_sets_.find(tid);
  if (it != thread_sets_.end()) {
    return it->second.get();
  }
  auto monitor = std::make_unique<ThreadSetMonitor>(tid, &shared_);
  ThreadSetMonitor* raw = monitor.get();
  reporter_.AddShutdownHook([raw] { raw->NotifyShutdown(); });
  thread_sets_[tid] = std::move(monitor);
  if (tid < kTidCacheSize) {
    set_cache_[tid].store(raw, std::memory_order_release);
  }
  return raw;
}

int64_t Mvee::Trap(uint32_t variant, uint32_t tid, SyscallRequest& request) {
  if (reporter_.tripped()) {
    if (AlreadyUnwinding()) {
      return -EINTR;  // Destructor-driven trap during teardown: no rendezvous.
    }
    throw VariantKilled{};
  }
  std::vector<int32_t> signals;
  const int64_t retval = GetThreadSet(tid)->RunSyscall(variant, request, &signals);

  // Deferred signal delivery (GHUMVEE-style): the rendezvous that just
  // completed is the deterministic delivery point — every variant's copy of
  // this thread runs the handler here, after the same syscall. Handlers may
  // themselves make syscalls; those rendezvous normally (all variants run
  // the same handler code).
  for (int32_t sig : signals) {
    SignalHandler handler;
    {
      VariantState& state = *variants_[variant];
      std::lock_guard<std::mutex> lock(state.handlers_mutex);
      auto entry = state.signal_handlers.find(sig);
      if (entry != state.signal_handlers.end()) {
        handler = entry->second;
      }
    }
    if (handler) {
      VariantEnv env(this, variant, tid, variants_[variant]->diversity.get());
      handler(env);
    }
    // No handler: default disposition is ignore (the virtual kernel has no
    // process to terminate with SIGKILL semantics).
  }
  return retval;
}

void Mvee::RaiseSignal(uint32_t tid, int32_t sig) {
  std::lock_guard<std::mutex> lock(shared_.signal_mutex);
  if (shared_.exited_tids.count(tid) != 0) {
    return;  // Target's thread set already ran its exit round: undeliverable.
  }
  shared_.pending_signals[tid].push_back(sig);
  shared_.pending_signal_count.fetch_add(1, std::memory_order_release);
}

void Mvee::SetSignalHandler(uint32_t variant, int32_t sig, SignalHandler handler) {
  VariantState& state = *variants_[variant];
  std::lock_guard<std::mutex> lock(state.handlers_mutex);
  state.signal_handlers[sig] = std::move(handler);
}

void Mvee::RunVariantThread(uint32_t variant, uint32_t tid, const ThreadFn& fn) {
  VariantState& state = *variants_[variant];
  VariantEnv env(this, variant, tid, state.diversity.get());
  EnvFutexHook futex_hook(&env);
  SyncContext context{state.agent.get(), &futex_hook, tid};
  ScopedSyncContext scoped(&context);
  try {
    fn(env);
    // Implicit sys_exit on return: the last rendezvous of this thread set.
    SyscallRequest exit_request;
    exit_request.sysno = Sysno::kExit;
    env.Syscall(exit_request);
  } catch (const VariantKilled&) {
    // MVEE shutdown: unwind quietly; Run() reports the recorded status.
  }
}

void Mvee::StartThread(uint32_t variant, uint32_t child_tid, ThreadFn fn) {
  VariantState& state = *variants_[variant];
  std::thread thread([this, variant, child_tid, fn = std::move(fn)] {
    RunVariantThread(variant, child_tid, fn);
  });
  std::lock_guard<std::mutex> lock(state.threads_mutex);
  state.threads[child_tid] = std::move(thread);
}

void Mvee::JoinThread(uint32_t variant, uint32_t tid) {
  VariantState& state = *variants_[variant];
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(state.threads_mutex);
    auto it = state.threads.find(tid);
    if (it == state.threads.end()) {
      return;
    }
    to_join = std::move(it->second);
    state.threads.erase(it);
  }
  if (to_join.joinable()) {
    to_join.join();
  }
}

void Mvee::WatchdogLoop() {
  const auto budget = options_.blocked_call_timeout;
  // Sweep granularity: fine enough that stage boundaries are hit within
  // ~12% of their nominal time, coarse enough that the sweep itself is
  // invisible (a handful of relaxed loads per thread set per tick).
  const auto tick = std::max(budget / 8, std::chrono::milliseconds(1));

  struct Watch {
    uint64_t seq = 0;
    std::chrono::steady_clock::time_point since;
    int stage = 0;  // escalation stages already taken for this heartbeat
  };
  // Steady state allocates nothing: a (tid, variant) node is inserted the
  // first time that thread is seen in a call and from then on reset in
  // place, and the monitor list is reserved up front (thread sets are
  // logical threads, which the agents bound by max_threads).
  std::map<std::pair<uint32_t, uint32_t>, Watch> watches;  // (tid, variant)
  std::vector<ThreadSetMonitor*> monitors;
  monitors.reserve(options_.agent_config.max_threads);

  while (!watchdog_stop_.load(std::memory_order_acquire) && !reporter_.tripped()) {
    // Interruptible sleep: Run() flips the stop flag before joining.
    for (auto slept = std::chrono::milliseconds(0); slept < tick;
         slept += std::chrono::milliseconds(1)) {
      if (watchdog_stop_.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    monitors.clear();
    {
      std::lock_guard<std::mutex> lock(sets_mutex_);
      for (auto& [tid, monitor] : thread_sets_) {
        monitors.push_back(monitor.get());
      }
    }
    const auto now = std::chrono::steady_clock::now();
    for (ThreadSetMonitor* monitor : monitors) {
      for (uint32_t v = 0; v < options_.num_variants; ++v) {
        const auto key = std::make_pair(monitor->tid(), v);
        const ThreadSetMonitor::CallProgress progress =
            reporter_.VariantDead(v) ? ThreadSetMonitor::CallProgress{} : monitor->Progress(v);
        if (!progress.in_call) {
          if (const auto found = watches.find(key); found != watches.end()) {
            found->second = Watch{};
          }
          continue;
        }
        Watch& watch = watches[key];
        if (watch.seq != progress.seq || watch.since.time_since_epoch().count() == 0) {
          watch = Watch{progress.seq, now, 0};
          continue;
        }
        const auto stuck = now - watch.since;
        // Stage 1 (1x): visibility. A blocked call this old is either a
        // legitimately slow peer (the dump says which) or the start of a
        // hang; either way the operator gets the round state now, not after
        // the kill.
        if (watch.stage < 1 && stuck >= budget) {
          watch.stage = 1;
          watchdog_dumps_.fetch_add(1, std::memory_order_relaxed);
          MVEE_LOG(kWarn) << "watchdog: variant " << v << " blocked in "
                          << SysnoName(progress.sysno) << " on thread set "
                          << monitor->tid() << " past "
                          << std::chrono::duration_cast<std::chrono::milliseconds>(stuck)
                                 .count()
                          << "ms\n"
                          << DumpState();
        }
        // Stage 2 (1.5x): non-destructive remedies. A lost futex/wait-queue
        // wakeup leaves waiters queued with nothing wrong but the missed
        // edge — a spurious wake (legal per futex semantics) repairs it; an
        // abandoned fd lease is released the same way.
        if (watch.stage < 2 && stuck >= budget + budget / 2) {
          watch.stage = 2;
          watchdog_nudges_.fetch_add(1, std::memory_order_relaxed);
          kernel_->NudgeBlockedCalls();
          for (auto& variant : variants_) {
            variant->process->fds().ReleaseAbandonedLeases();
          }
        }
        // Stage 3 (2x): the call survived a nudge — treat the variant as
        // failed. The combined-master executor is never excisable (every
        // survivor needs its result), nor is variant 0; those escalate to
        // shutdown directly.
        if (watch.stage < 3 && stuck >= 2 * budget) {
          watch.stage = 3;
          std::ostringstream detail;
          detail << "watchdog: variant " << v << " blocked in "
                 << SysnoName(progress.sysno) << " on thread set " << monitor->tid()
                 << " past "
                 << std::chrono::duration_cast<std::chrono::milliseconds>(stuck).count()
                 << "ms (2x blocked_call_timeout)";
          if (progress.in_master || v == 0) {
            reporter_.Report(StatusCode::kTimeout, detail.str());
          } else {
            reporter_.ReportVariantFailure(v, StatusCode::kTimeout, detail.str());
          }
        }
      }
    }
  }
}

Status Mvee::Run(Program program) {
  const auto start = std::chrono::steady_clock::now();
  MVEE_LOG(kInfo) << "MVEE starting " << options_.num_variants << " variants, agent="
                  << AgentKindName(options_.agent);

  // Arm the deterministic fault plan (docs/fault_injection.md) before any
  // variant thread can reach a site. A malformed plan is a configuration
  // error: surface it as a fatal report rather than silently running
  // fault-free under a chaos test that expects faults.
  if (!options_.fault_plan.empty()) {
    FaultPlan plan;
    std::string error;
    if (!FaultPlan::Parse(options_.fault_plan, &plan, &error) ||
        !FaultInjector::Global().Arm(plan, options_.num_variants, options_.seed)) {
      reporter_.Report(StatusCode::kInvalidArgument,
                       "bad fault plan '" + options_.fault_plan + "': " +
                           (error.empty() ? "too many entries" : error));
      report_.status = reporter_.status();
      return report_.status;
    }
    armed_faults_ = true;
  }

  // Blocked-call watchdog (docs/DESIGN.md §9); zero timeout disables it.
  watchdog_stop_.store(false, std::memory_order_release);
  if (options_.blocked_call_timeout.count() > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }

  // Bootstrap: start logical thread 0 in every variant (the paper's
  // bootstrap process hands control to the monitors once variants are
  // initialized, §4).
  for (uint32_t v = 0; v < options_.num_variants; ++v) {
    StartThread(v, /*child_tid=*/0, program);
  }

  // Wait for the main thread of every variant, then for any stragglers the
  // program spawned but did not join.
  for (uint32_t v = 0; v < options_.num_variants; ++v) {
    JoinThread(v, 0);
  }
  for (auto& variant : variants_) {
    for (;;) {
      std::thread to_join;
      {
        std::lock_guard<std::mutex> lock(variant->threads_mutex);
        if (variant->threads.empty()) {
          break;
        }
        auto it = variant->threads.begin();
        to_join = std::move(it->second);
        variant->threads.erase(it);
      }
      if (to_join.joinable()) {
        to_join.join();
      }
    }
  }

  const auto end = std::chrono::steady_clock::now();

  // Every variant thread is joined: quiesce the robustness machinery before
  // reading its counters.
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
  if (armed_faults_) {
    FaultInjector::Global().Disarm();
    armed_faults_ = false;
  }

  report_.status = reporter_.tripped()
                       ? reporter_.status()
                       : Status::Ok();
  report_.divergence_detail = reporter_.status().message();
  report_.excised_variants = reporter_.excisions();
  report_.excision_latency_ns = reporter_.max_excision_latency_ns();
  report_.watchdog_dumps = watchdog_dumps_.load(std::memory_order_relaxed);
  report_.watchdog_nudges = watchdog_nudges_.load(std::memory_order_relaxed);
  {
    // Counters are sharded per thread set (relaxed atomics); with every
    // variant thread joined the shards are quiescent and the sum is exact.
    std::lock_guard<std::mutex> lock(sets_mutex_);
    report_.syscalls = SyscallCounters{};
    for (auto& [tid, monitor] : thread_sets_) {
      monitor->AccumulateCounters(&report_.syscalls);
    }
  }
  {
    const AgentStatsSnapshot snapshot = fleet_->StatsSnapshot();
    report_.sync_ops_recorded = snapshot.ops_recorded;
    report_.sync_ops_replayed = snapshot.ops_replayed;
    report_.replay_stalls = snapshot.replay_stalls;
    report_.record_stalls = snapshot.record_stalls;
    report_.record_lock_spins = snapshot.record_lock_spins;
    report_.adaptive_bound_variables = fleet_->BoundVariables();
    report_.agent_migrations = fleet_->MigrationsCompleted();
    report_.agent_migrations_aborted = fleet_->MigrationsAborted();
  }
  {
    // Kernel readiness counters (cumulative for shared external kernels; the
    // usual owned-kernel case starts from zero).
    const VKernelStatsSnapshot kernel_stats = kernel_->stats();
    report_.vkernel_waitq_waits = kernel_stats.waitq_waits;
    report_.vkernel_waitq_wakeups = kernel_stats.waitq_wakeups;
  }
  // All variant threads are joined: the domain table is quiescent, so
  // retired per-fd domains whose replays completed can be reclaimed.
  order_domains_->Reclaim();
  {
    const OrderDomainStats domain_stats = order_domains_->stats();
    report_.order_domains_created = domain_stats.created;
    report_.order_domains_retired = domain_stats.retired;
    report_.order_domains_reclaimed = domain_stats.reclaimed;
  }
  report_.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start).count();
  MVEE_LOG(kInfo) << "MVEE finished: " << report_.status.ToString() << " in "
                  << report_.wall_seconds << "s";
  return report_.status;
}

}  // namespace mvee
