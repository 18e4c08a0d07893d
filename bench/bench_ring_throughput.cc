// BroadcastRing throughput (the sync buffer behind every agent's recording
// path, with Disruptor-style cached gating cursors — docs/perf.md).
//
// Two harnesses:
//
//  * interleaved — one thread alternates producer and consumer roles in
//    batches. Deterministic and core-count independent, so it isolates the
//    *instruction-path* cost: the producer-phase rate is the master record
//    path that bounds the whole MVEE (paper §4.5).
//
//  * threaded — a real producer thread against real consumer threads. On a
//    multi-core host this additionally exposes any cross-core cache-line
//    traffic on the gating cursors; on a single-core host it mostly
//    measures the scheduler, so it only runs when hardware_concurrency
//    reports enough cores.
//
// MVEE_BENCH_RING_ITERS overrides the item count (CI smoke uses a small one).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "mvee/util/spsc_ring.h"

namespace {

using mvee::BroadcastRing;
using Clock = std::chrono::steady_clock;

constexpr size_t kCapacity = 1 << 12;
constexpr size_t kBatch = 1 << 10;
constexpr size_t kConsumers = 2;

size_t Iterations() {
  if (const char* env = std::getenv("MVEE_BENCH_RING_ITERS")) {
    const long long value = std::atoll(env);
    if (value > 0) {
      // Round up to a whole number of batches.
      return ((static_cast<size_t>(value) + kBatch - 1) / kBatch) * kBatch;
    }
  }
  return 1 << 24;
}

struct Rates {
  double producer_ops = 0.0;  // pushes per second, producer-phase time only
  double end_to_end_ops = 0.0;  // items per second through push + all pops
};

Rates RunInterleaved(size_t iters) {
  BroadcastRing<uint64_t> ring(kCapacity);
  size_t consumers[kConsumers];
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers[c] = ring.RegisterConsumer();
  }

  uint64_t sink = 0;
  double push_seconds = 0.0;
  const auto start = Clock::now();
  for (size_t i = 0; i < iters; i += kBatch) {
    const auto push_start = Clock::now();
    for (size_t j = 0; j < kBatch; ++j) {
      ring.Push(i + j);
    }
    push_seconds +=
        std::chrono::duration<double>(Clock::now() - push_start).count();
    for (size_t c = 0; c < kConsumers; ++c) {
      for (size_t j = 0; j < kBatch; ++j) {
        sink += ring.Pop(consumers[c]);
      }
    }
  }
  const double total_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (sink == 42) {
    std::printf("(unreachable, defeats dead-code elimination)\n");
  }
  Rates rates;
  rates.producer_ops = iters / push_seconds;
  rates.end_to_end_ops = iters / total_seconds;
  return rates;
}

double RunThreaded(size_t iters) {
  BroadcastRing<uint64_t> ring(kCapacity);
  size_t consumers[kConsumers];
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers[c] = ring.RegisterConsumer();
  }

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&ring, &consumers, c, iters] {
      uint64_t sink = 0;
      for (size_t i = 0; i < iters; ++i) {
        sink += ring.Pop(consumers[c]);
      }
      if (sink == 42) {
        std::printf("(unreachable)\n");
      }
    });
  }
  const auto start = Clock::now();
  for (size_t i = 0; i < iters; ++i) {
    ring.Push(i);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return iters / seconds;
}

}  // namespace

int main() {
  using mvee::bench::PrintHeader;
  const size_t iters = Iterations();

  PrintHeader("BroadcastRing throughput (cached gating cursors)");
  std::printf("capacity=%zu, consumers=%zu, batch=%zu, items=%zu\n\n", kCapacity,
              kConsumers, kBatch, iters);

  RunInterleaved(std::min(iters, static_cast<size_t>(1) << 20));  // warmup

  std::printf("--- interleaved (single thread, instruction-path cost) ---\n");
  const Rates interleaved = RunInterleaved(iters);
  std::printf("producer %8.1f M ops/s   end-to-end %8.1f M items/s\n\n",
              interleaved.producer_ops / 1e6, interleaved.end_to_end_ops / 1e6);

  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= kConsumers + 1) {
    std::printf("--- threaded (1 producer + %zu consumer threads, %u cores) ---\n",
                kConsumers, cores);
    std::printf("%8.1f M items/s\n", RunThreaded(iters) / 1e6);
  } else {
    std::printf("--- threaded harness skipped (%u core(s) < %zu needed; the\n"
                "    cross-core traffic it measures does not exist here) ---\n",
                cores, kConsumers + 1);
  }
  return 0;
}
