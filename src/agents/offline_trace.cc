#include "mvee/agents/offline_trace.h"

#include <chrono>
#include <cstring>

#include "mvee/util/hash.h"
#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

size_t SyncTrace::TotalEvents() const {
  size_t total = 0;
  for (const auto& events : per_thread_) {
    total += events.size();
  }
  return total;
}

std::vector<uint8_t> SyncTrace::Serialize() const {
  // Layout: [u32 magic][u32 max_threads][u64 clock_count]
  //         per thread: [u64 count] count x ([u32 clock][u64 time])
  std::vector<uint8_t> bytes;
  auto put32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  auto put64 = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put32(0x53594e43);  // "SYNC"
  put32(max_threads());
  put64(clock_count_);
  for (const auto& events : per_thread_) {
    put64(events.size());
    for (const auto& event : events) {
      put32(event.clock_id);
      put64(event.time);
    }
  }
  return bytes;
}

std::unique_ptr<SyncTrace> SyncTrace::Deserialize(const std::vector<uint8_t>& bytes) {
  size_t offset = 0;
  auto get32 = [&](uint32_t* out) {
    if (offset + 4 > bytes.size()) {
      return false;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
    }
    offset += 4;
    *out = v;
    return true;
  };
  auto get64 = [&](uint64_t* out) {
    if (offset + 8 > bytes.size()) {
      return false;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
    }
    offset += 8;
    *out = v;
    return true;
  };

  uint32_t magic = 0;
  uint32_t max_threads = 0;
  uint64_t clock_count = 0;
  if (!get32(&magic) || magic != 0x53594e43 || !get32(&max_threads) ||
      !get64(&clock_count) || max_threads == 0 || max_threads > 4096) {
    return nullptr;
  }
  auto trace = std::make_unique<SyncTrace>(max_threads, clock_count);
  for (uint32_t t = 0; t < max_threads; ++t) {
    uint64_t count = 0;
    if (!get64(&count)) {
      return nullptr;
    }
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t clock = 0;
      uint64_t time = 0;
      if (!get32(&clock) || !get64(&time)) {
        return nullptr;
      }
      trace->Append(t, {clock, time});
    }
  }
  return trace;
}

OfflineRecorderAgent::OfflineRecorderAgent(uint32_t max_threads, size_t clock_count)
    : trace_(std::make_unique<SyncTrace>(max_threads, clock_count)),
      clocks_(clock_count),
      pending_(max_threads) {}

OfflineRecorderAgent::~OfflineRecorderAgent() = default;

void OfflineRecorderAgent::BeforeSyncOp(uint32_t tid, const void* addr) {
  const uint32_t clock_id = WallClockOf(addr, clocks_.size());
  auto& clock = clocks_[clock_id];
  SpinWait waiter;
  while (clock.lock.test_and_set(std::memory_order_acquire)) {
    waiter.Pause();
  }
  pending_[tid] = {clock_id, clock.time};
}

void OfflineRecorderAgent::AfterSyncOp(uint32_t tid, const void* addr) {
  (void)addr;
  const Pending pending = pending_[tid];
  auto& clock = clocks_[pending.clock_id];
  {
    // Trace appends may reallocate vectors: serialize them (offline
    // recording has no no-allocation constraint, §3.3 applies only to the
    // online agents).
    std::lock_guard<std::mutex> lock(append_mutex_);
    trace_->Append(tid, {pending.clock_id, pending.time});
  }
  clock.time = pending.time + 1;
  clock.lock.clear(std::memory_order_release);
}

std::unique_ptr<SyncTrace> OfflineRecorderAgent::TakeTrace() { return std::move(trace_); }

OfflineReplayAgent::OfflineReplayAgent(const SyncTrace* trace, AgentControl control)
    : trace_(trace),
      control_(std::move(control)),
      clocks_(trace->clock_count()),
      next_event_(trace->max_threads()),
      pending_(trace->max_threads()) {}

void OfflineReplayAgent::BeforeSyncOp(uint32_t tid, const void* addr) {
  (void)addr;
  const auto& events = trace_->ThreadEvents(tid);
  const uint64_t index = next_event_[tid].load(std::memory_order_relaxed);
  if (index >= events.size()) {
    // The replayed execution performs more sync ops than were recorded —
    // the program or inputs changed.
    if (control_.on_stall) {
      control_.on_stall("offline replay: trace exhausted for thread " + std::to_string(tid));
    }
    throw VariantKilled{};
  }
  const SyncTrace::Event event = events[index];
  auto& local_clock = clocks_[event.clock_id].time;
  SpinWait waiter;
  while (local_clock.load(std::memory_order_acquire) != event.time) {
    if (control_.aborted()) {
      throw VariantKilled{};
    }
    waiter.Pause();
  }
  pending_[tid] = event;
}

void OfflineReplayAgent::AfterSyncOp(uint32_t tid, const void* addr) {
  (void)addr;
  const SyncTrace::Event event = pending_[tid];
  clocks_[event.clock_id].time.store(event.time + 1, std::memory_order_release);
  next_event_[tid].fetch_add(1, std::memory_order_relaxed);
  replayed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mvee
