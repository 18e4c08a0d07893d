// Offline record/replay of sync-op schedules (RecPlay-style, paper §6).
//
// The online agents broadcast the master's sync-op order to concurrently
// running slaves. The offline pair here captures the same information —
// WoC-encoded (clock id, clock time) events per thread — into a serializable
// trace, so a *later* execution of the same program can be forced through
// the identical schedule ("capturing the order in a file to be replayed
// during a later execution", §6). Useful for deterministic debugging of
// variant programs and for testing the replay logic without an MVEE.

#ifndef MVEE_AGENTS_OFFLINE_TRACE_H_
#define MVEE_AGENTS_OFFLINE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mvee/agents/sync_agent.h"

namespace mvee {

// A recorded schedule: per-thread sequences of (clock, time) events, plus
// the clock-pool size they were recorded against.
class SyncTrace {
 public:
  struct Event {
    uint32_t clock_id = 0;
    uint64_t time = 0;
  };

  explicit SyncTrace(uint32_t max_threads = 64, size_t clock_count = 4096)
      : clock_count_(clock_count), per_thread_(max_threads) {}

  size_t clock_count() const { return clock_count_; }
  uint32_t max_threads() const { return static_cast<uint32_t>(per_thread_.size()); }
  const std::vector<Event>& ThreadEvents(uint32_t tid) const { return per_thread_[tid]; }
  size_t TotalEvents() const;

  void Append(uint32_t tid, Event event) { per_thread_[tid].push_back(event); }

  // Flat byte serialization (fixed little-endian layout) for storing traces
  // in the virtual filesystem.
  std::vector<uint8_t> Serialize() const;
  static std::unique_ptr<SyncTrace> Deserialize(const std::vector<uint8_t>& bytes);

 private:
  size_t clock_count_;
  std::vector<std::vector<Event>> per_thread_;
};

// Master-role agent that records into a SyncTrace (offline, so dynamic
// allocation is acceptable — there are no concurrently replaying slaves to
// keep in lockstep).
class OfflineRecorderAgent final : public SyncAgent {
 public:
  explicit OfflineRecorderAgent(uint32_t max_threads = 64, size_t clock_count = 4096);
  ~OfflineRecorderAgent() override;

  void BeforeSyncOp(uint32_t tid, const void* addr) override;
  void AfterSyncOp(uint32_t tid, const void* addr) override;
  AgentRole role() const override { return AgentRole::kMaster; }
  const char* name() const override { return "offline-recorder"; }

  // Takes the recorded trace (call after the program quiesced).
  std::unique_ptr<SyncTrace> TakeTrace();

 private:
  struct alignas(64) Clock {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    uint64_t time = 0;
  };

  std::unique_ptr<SyncTrace> trace_;
  std::vector<Clock> clocks_;
  std::mutex append_mutex_;
  struct Pending {
    uint32_t clock_id = 0;
    uint64_t time = 0;
  };
  std::vector<Pending> pending_;
};

// Slave-role agent that replays a SyncTrace in a later run of the same
// program: thread t's k-th sync op waits until the local clock named by the
// trace's k-th event reaches the recorded time.
class OfflineReplayAgent final : public SyncAgent {
 public:
  explicit OfflineReplayAgent(const SyncTrace* trace, AgentControl control = {});

  void BeforeSyncOp(uint32_t tid, const void* addr) override;
  void AfterSyncOp(uint32_t tid, const void* addr) override;
  AgentRole role() const override { return AgentRole::kSlave; }
  const char* name() const override { return "offline-replayer"; }

  // Events consumed so far (== trace total after a complete run).
  uint64_t EventsReplayed() const { return replayed_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) LocalClock {
    std::atomic<uint64_t> time{0};
  };

  const SyncTrace* const trace_;
  AgentControl control_;
  std::vector<LocalClock> clocks_;
  std::vector<std::atomic<uint64_t>> next_event_;  // Per thread.
  std::vector<SyncTrace::Event> pending_;          // Per thread.
  std::atomic<uint64_t> replayed_{0};
};

}  // namespace mvee

#endif  // MVEE_AGENTS_OFFLINE_TRACE_H_
