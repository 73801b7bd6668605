// The fpoptd request engine: one frame in, one response line out.
//
// A Service owns the two resources a batching daemon shares across
// requests — one process-wide work-stealing ThreadPool and one
// SharedMemoCache — and executes every request through the same
// execution core as the standalone CLI (io/command.h). The determinism
// contracts underneath (the engine's pool schedule bit-identical for every
// worker count, incremental runs byte-identical for any cache content) are
// what make this safe: a response is a pure function of its request
// document, no matter what other requests ran before or concurrently.
//
// handle_frame is thread-safe; the transports (server.h) call it from one
// thread per connection. Each request gets its own CacheSession over the
// shared cache (committed on success, rolled back on failure) and its
// own BudgetTracker-driven admission: an over-budget run is rejected
// with an E_BUDGET error response carrying the run report (aborted=true)
// — the daemon never crashes or drops the connection for it.
//
// Run commands additionally pass a DispatchGate: with --max-inflight N
// set, at most N requests execute concurrently, freed slots go to the
// most urgent waiting request ("priority" 0..2), and a request whose
// "deadline_ms" expires while still queued is shed with E_DEADLINE
// before doing any work. Requests that set neither field behave exactly
// as before — the gate can delay them but never changes their bytes.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>

#include "cache/shared_cache.h"
#include "runtime/thread_pool.h"
#include "service/protocol.h"
#include "telemetry/log.h"

namespace fpopt {

class ServiceMetrics;

struct ServiceConfig {
  /// Workers of the process-wide pool serving every parallel request
  /// (options.threads > 0). 0 = no shared pool; each parallel request
  /// then spins up a run-owned pool, standalone-style.
  unsigned pool_workers = 0;
  /// Share one memo cache across incremental requests. Off = every
  /// incremental request gets a cold run-local cache (the standalone
  /// behavior), which is the daemon-side control for equivalence tests.
  bool shared_cache = true;
  /// Byte budget of the shared cache (0 = unlimited).
  std::size_t cache_bytes = MemoCache::kDefaultByteBudget;
  /// Frames longer than this are answered with E_OVERSIZED (and the
  /// transports resynchronize to the next newline). 0 = unlimited.
  std::size_t max_frame_bytes = 8u << 20;
  /// Admission control: implementation budget applied to any request that
  /// does not set "budget" itself. 0 = unlimited (the CLI default).
  std::size_t default_impl_budget = 0;
  /// Connection cap of the socket transports (Unix and TCP): a connection
  /// accepted past this many live ones is answered E_OVERLOADED and
  /// closed. 0 = unlimited.
  std::size_t max_connections = 256;
  /// Run-command requests executing at once; excess requests queue in the
  /// priority-aware DispatchGate in front of the shared pool. 0 =
  /// unlimited (no queuing, the gate is a pass-through).
  unsigned max_inflight = 0;
  /// Publish per-request metrics into a ServiceMetrics registry served by
  /// the `metrics` admin verb and --metrics-port. Off answers the verb
  /// with E_OPTION and skips every publication (the bench's control leg
  /// for measuring observability overhead at runtime; FPOPT_TELEMETRY=OFF
  /// is the compile-time zero-overhead path).
  bool metrics = true;
  /// Structured JSONL log sink (telemetry/log.h), owned by the caller and
  /// outliving the Service. Null = no logging.
  telemetry::LogSink* log = nullptr;
  /// Retain the captured traces of up to this many recent requests (plus
  /// the slowest ever) for the `trace` admin verb. 0 = request tracing
  /// off: "trace": true requests run untraced and the verb errors.
  std::size_t trace_requests = 0;
  /// Also capture every Nth run request (1 = all, 0 = only requests that
  /// ask with "trace": true). Capture serializes execution (one traced
  /// request at a time, alone in the engine), so sampling every request
  /// is a debugging mode, not a production default.
  std::size_t trace_sample = 0;
};

/// Priority-aware admission queue in front of the shared ThreadPool: at
/// most `slots` run-command requests execute at once; the rest wait, and
/// each freed slot goes to the most urgent (then oldest) waiter. A waiter
/// whose deadline expires before it is dispatched is shed (acquire
/// returns false) and never runs. The gate orders only *dispatch*; the
/// bytes of every dispatched response are unaffected by it.
class DispatchGate {
 public:
  /// The gate's clock. Deadlines are traffic policy by design: they pick
  /// which requests run, never what a dispatched request answers.
  using Clock = std::chrono::steady_clock;  // FPOPT-LINT-OK(wall-clock): deadline shedding is time-driven traffic policy; response bytes of dispatched requests never depend on it

  /// `slots` concurrent executions (0 = unlimited: acquire never blocks).
  explicit DispatchGate(unsigned slots) : slots_(slots) {}
  DispatchGate(const DispatchGate&) = delete;
  DispatchGate& operator=(const DispatchGate&) = delete;

  /// Block until a slot is free and no more urgent request is waiting.
  /// Returns false — without ever dispatching — when `deadline` passed
  /// first (including a deadline already expired on entry, even for an
  /// unlimited gate). `priority` is 0..2, higher = dispatched earlier.
  [[nodiscard]] bool acquire(int priority,
                             const std::optional<Clock::time_point>& deadline);

  /// Return the slot taken by a successful bounded acquire.
  void release();

  /// Requests currently blocked in acquire (test/stats observability).
  [[nodiscard]] std::size_t waiting() const;
  /// Waiters split by priority (index 0..2), for the queue-depth gauges.
  [[nodiscard]] std::array<std::size_t, 3> waiting_by_priority() const;
  /// Slots currently held (0 when the gate is unlimited).
  [[nodiscard]] unsigned in_use() const;
  /// Requests shed because their deadline expired before dispatch.
  [[nodiscard]] std::uint64_t shed() const;

 private:
  const unsigned slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  unsigned in_use_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t shed_ = 0;
  /// Waiters as (-priority, arrival seq): the set's begin() is always the
  /// most urgent, then oldest, waiter — the one a freed slot belongs to.
  std::set<std::pair<int, std::uint64_t>> queue_;
};

/// Monotonic service counters (never reset; read with relaxed loads —
/// they order nothing, they only report).
struct ServiceStats {
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_error = 0;
  std::uint64_t frames = 0;         ///< every frame seen, well-formed or not
  std::uint64_t requests_shed = 0;  ///< E_DEADLINE: expired before dispatch
};

class Service {
 public:
  explicit Service(ServiceConfig config);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Process one frame (one line, newline stripped) and return the
  /// response line (no trailing newline). Never throws; every failure
  /// becomes an error response. Thread-safe.
  [[nodiscard]] std::string handle_frame(const std::string& frame);

  /// Set once a shutdown request has been processed; the transports
  /// drain and exit when they see it.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Raise the shutdown flag from outside the protocol — fpoptd uses
  /// this to stop the metrics HTTP sidecar when the frame transport
  /// exits for its own reasons (stdin EOF, listener failure).
  void request_shutdown() { shutdown_.store(true, std::memory_order_release); }

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] ServiceStats stats() const;
  /// The cross-request cache, or nullptr when shared_cache is off.
  [[nodiscard]] const SharedMemoCache* cache() const {
    return cache_.has_value() ? &*cache_ : nullptr;
  }
  /// The dispatch gate every run-command request passes through (exposed
  /// so tests can saturate it deterministically and stats can read it).
  [[nodiscard]] DispatchGate& gate() { return gate_; }
  /// The metric registry behind the `metrics` verb, or nullptr when
  /// config.metrics is off. The transports and fpoptd attach the
  /// connection registry / log sink through this.
  [[nodiscard]] ServiceMetrics* metrics() { return metrics_.get(); }
  /// The structured log sink, or nullptr when logging is off.
  [[nodiscard]] telemetry::LogSink* log() const { return config_.log; }

  /// One retained request trace: the Chrome trace-event document a
  /// traced request exported, plus the index fields the `trace` verb's
  /// "list" pick reports.
  struct RetainedTrace {
    std::uint64_t request_id = 0;
    std::string command;
    double seconds = 0;  ///< traced request's execute-phase wall time
    std::uint64_t dropped_events = 0;
    std::string json;  ///< complete Chrome trace-event JSON document
  };

 private:
  /// Per-request accounting filled by handle_request and published by
  /// handle_frame (metrics + one structured log line per request).
  struct RequestOutcome {
    bool ok = false;
    ServiceErrorCode error = ServiceErrorCode::kInternal;  ///< valid when !ok
    bool dispatched = false;  ///< run command that passed the gate
    double gate_wait_seconds = 0;
    double execute_seconds = 0;
    std::optional<double> deadline_slack_ms;  ///< remaining at dispatch
    std::uint64_t cache_hits = 0;
    bool traced = false;
  };

  [[nodiscard]] std::string handle_request(const ServiceRequest& request,
                                           std::uint64_t request_id, RequestOutcome& outcome);
  [[nodiscard]] std::string handle_metrics_verb(const ServiceRequest& request,
                                                RequestOutcome& outcome);
  [[nodiscard]] std::string handle_trace_verb(const ServiceRequest& request,
                                              RequestOutcome& outcome);
  void retain_trace(RetainedTrace trace);
  void log_request(const ServiceRequest& request, std::uint64_t request_id,
                   const RequestOutcome& outcome, double seconds);

  ServiceConfig config_;
  DispatchGate gate_;
  std::optional<ThreadPool> pool_;
  std::optional<SharedMemoCache> cache_;
  std::unique_ptr<ServiceMetrics> metrics_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_error_{0};
  std::atomic<std::uint64_t> frames_{0};
  /// Server-assigned request ids: monotonically increasing, first id 1.
  std::atomic<std::uint64_t> next_request_id_{0};
  /// Run-command arrivals, for trace_sample's every-Nth selection.
  std::atomic<std::uint64_t> run_seq_{0};
  /// Request-trace capture: one capture at a time (capture_mu_), and the
  /// traced request runs alone — it takes exec_mu_ exclusively while
  /// every untraced run request holds it shared, giving the quiescence
  /// TraceSession's export contract needs without stopping the daemon.
  std::mutex trace_capture_mu_;
  std::shared_mutex exec_mu_;
  mutable std::mutex traces_mu_;
  std::deque<RetainedTrace> traces_;  ///< most recent last, bounded
  RetainedTrace slowest_;
  bool have_slowest_ = false;
};

}  // namespace fpopt
