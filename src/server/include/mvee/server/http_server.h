// Mini multi-threaded HTTP server — the nginx-1.8 stand-in of paper §5.5.
//
// Faithful to the scenario the paper evaluates:
//   * a thread pool serves requests accepted by a dispatcher thread;
//   * inter-thread synchronization mixes pthread-style primitives (the
//     instrumented Mutex/CondVar connection queue) with *custom* primitives
//     the nginx developers wrote themselves (a spinlock + statistics
//     counters built from raw compiler atomics);
//   * the custom primitives can be built instrumented or uninstrumented.
//     Uninstrumented + multiple variants = benign divergence as soon as
//     traffic flows, exactly as the paper reports;
//   * a CVE-2013-2028-style stack-overflow handler lets an attack payload
//     corrupt a response selector. The attack is tailored to one variant's
//     (simulated) memory layout, so N>=2 diversified variants respond
//     differently and the MVEE kills them before the secret escapes.

#ifndef MVEE_SERVER_HTTP_SERVER_H_
#define MVEE_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "mvee/sync/instrumented.h"
#include "mvee/variant/env.h"

namespace mvee {

// Default for ServerConfig::use_event_loop: on, unless the environment
// forces the seed's one-at-a-time dispatcher (MVEE_SERVER_EVENT_LOOP=0).
// The override lets the whole test suite sweep either serving architecture
// without edits (`MVEE_SERVER_EVENT_LOOP=0 ctest`); explicit assignments in
// code always win.
inline bool DefaultServerEventLoop() {
  const char* env = std::getenv("MVEE_SERVER_EVENT_LOOP");
  return env == nullptr || env[0] != '0';
}

struct ServerConfig {
  uint16_t port = 8080;
  uint32_t pool_threads = 8;   // Paper §5.5 uses 32-thread pools.
  uint32_t page_bytes = 4096;  // Static page size served (4 KiB in §5.5).
  // Expected number of connections; the server exits after serving them.
  uint32_t connection_budget = 100;
  // Instrument the custom (non-pthread) sync primitives. False reproduces
  // the §5.5 divergence: "if we do not instrument these custom
  // synchronization primitives, nginx does not function correctly when
  // running multiple variants".
  bool instrument_custom_sync = true;
  // Compile in the CVE-2013-2028-style vulnerable handler at /vuln.
  bool enable_vulnerability = false;
  // Readiness-driven serving (docs/DESIGN.md §10): one acceptor thread polls
  // the listener and distributes accepted fds to pool workers over vkernel
  // pipes; each worker multiplexes its connections with sys_poll, serving
  // HTTP/1.1 keep-alive and pipelined requests with bounded read buffers
  // (400/413 on malformed/oversized requests) and draining gracefully when
  // the budget is reached. False restores the seed dispatcher: HTTP/1.0,
  // one blocking accept at a time, one connection per worker wakeup.
  bool use_event_loop = DefaultServerEventLoop();
  // Per-connection read-buffer cap (headers + body). A request whose headers
  // never terminate inside the cap, or whose Content-Length exceeds it, is
  // answered with 413 and the connection is closed — never silently
  // truncated (event loop only; the seed dispatcher keeps its historical
  // 64 KiB silent cutoff).
  uint32_t max_request_bytes = 65536;
  // Listener backlog (the seed hardcoded 128; open-loop bursts need more).
  int32_t listen_backlog = 1024;
};

// nginx-style custom spinlock: built from compiler intrinsics rather than
// libpthread. The `instrumented` flag selects whether its atomics run
// through the sync agent (the paper's refactored build: "we identified 51
// sync ops in total") or bypass it (the stock build).
class NgxSpinlock {
 public:
  explicit NgxSpinlock(bool instrumented) : instrumented_(instrumented) {}

  void Lock();
  void Unlock();

 private:
  const bool instrumented_;
  InstrumentedAtomic<int32_t> instrumented_state_{0};
  std::atomic<int32_t> raw_state_{0};
};

// Aggregate statistics shared by the worker pool; guarded by the custom
// spinlock (as nginx guards its shared counters).
struct ServerStats {
  uint64_t requests_served = 0;
  uint64_t bytes_sent = 0;
  uint64_t vuln_hits = 0;
  // Event-loop error accounting (the seed dispatcher never rejects): 400s
  // for malformed request lines / headers, 413s for requests that exceed
  // ServerConfig::max_request_bytes.
  uint64_t bad_requests = 0;
  uint64_t oversized_requests = 0;
};

// Builds the variant program that runs the server to completion (serves
// `config.connection_budget` connections, then shuts down and writes its
// stats to "result/http_stats"). The same program also runs natively.
// `config.use_event_loop` selects between the readiness-driven event loop
// and the seed's one-at-a-time dispatcher; both write identical stats lines.
Program MakeServerProgram(const ServerConfig& config);

// The secret the attack tries to exfiltrate (stands in for nginx worker
// memory contents: keys, pointers).
std::string ServerSecret();

// The response-selector token a variant with mapping base `map_base`
// expects; the attack payload embeds the token for its victim's layout.
uint64_t LayoutToken(uint64_t map_base);

}  // namespace mvee

#endif  // MVEE_SERVER_HTTP_SERVER_H_
