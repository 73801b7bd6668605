// Low-overhead event tracing of the optimizer schedule: who evaluated
// which T' node when, on which worker, and what the kernels underneath
// were doing (ISSUE 5 tentpole).
//
// Model: a process-wide TraceSession is armed by the CLI (--trace=FILE)
// or a test; every instrumented scope (TraceSpan) or point (trace_instant)
// appends one fixed-size event to a per-thread ring buffer. Rings are
// single-producer — only the owning thread writes — and are harvested by
// the session exporter after the traced work has quiesced, so the hot
// path is one relaxed atomic load (is a session armed?) plus one
// steady_clock read per span boundary, with no locks and no allocation.
// A ring that fills up drops further events and counts the drops
// (bounded memory by construction); the exporter reports the total.
//
// Determinism contract (docs/ALGORITHMS.md §10, mirroring §9): every
// event carries a deterministic identity (category, name, id, arg) whose
// values derive from the run's structure — node ids for node/cache
// events, DP problem sizes for kernel events, attempt indices for
// annealing events — never from wall clock or scheduling. Timestamps,
// durations and thread ids are measurement and are excluded from every
// byte-identical comparison (fpopt_trace diff compares the deterministic
// identity multiset; pool-category events are scheduling by nature and
// are compared by aggregate only).
//
// Export is Chrome trace-event JSON ("X" complete + "i" instant events,
// microsecond timestamps relative to session start), loadable in Perfetto
// or chrome://tracing and analyzed offline by tools/fpopt_trace.
//
// Lifecycle rule: arm/disarm the session only while no instrumented work
// is running (create it before optimize/anneal, export after they return
// — worker pools are per-run and joined inside, so this is the natural
// CLI shape). One session may be armed at a time.
//
// Compile-out: with FPOPT_TELEMETRY=OFF every hook compiles to an empty
// body (telemetry::kEnabled == false) and an armed session exports a
// valid, empty trace document.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace fpopt::telemetry {

/// Event category. Deterministic-identity categories (everything except
/// kPool) promise the same (name, id, arg) multiset for every run of the
/// same workload at any thread count; kPool events are scheduling.
enum class TraceCat : std::uint8_t {
  kPhase,   ///< coarse run phases (restructure, evaluate, calibrate, search)
  kNode,    ///< one T' node evaluation; id = node id, args carry child ids
  kKernel,  ///< selection/CSPP kernels, canonicalize; id = problem size n, arg = k or chains
  kCache,   ///< memo serve/publish/epoch; id = node id
  kPool,    ///< work-stealing traffic; scheduling-dependent, never compared
  kAnneal,  ///< annealing moves; id = attempt index
};

[[nodiscard]] const char* trace_cat_name(TraceCat cat);

/// One captured event. `start_ns` is absolute steady-clock nanoseconds;
/// the exporter rebases onto the session start. `left`/`right` are child
/// node ids for kNode spans (-1 = no child).
struct TraceEvent {
  const char* name = nullptr;  ///< static string (literal)
  std::uint64_t id = 0;
  std::uint64_t arg = 0;
  std::int64_t left = -1;
  std::int64_t right = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  TraceCat cat = TraceCat::kPhase;
  bool instant = false;
};

/// One thread's bounded event buffer. Single producer (the owning
/// thread); the session reads it only after producers quiesced.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) { events_.reserve(capacity); }

  void push(const TraceEvent& e) {
    if (events_.size() < events_.capacity()) {
      events_.push_back(e);
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Perfetto thread label; set once by the owning thread (trace_thread_name).
  std::string name;

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

struct TraceOptions {
  /// Events per thread before the ring starts dropping (and counting).
  std::size_t ring_capacity = 1 << 16;
};

/// The armed trace: owns every thread's ring, the time base, and the
/// export. Construction arms (at most one at a time), destruction
/// disarms; see the lifecycle rule in the header comment.
class TraceSession {
 public:
  explicit TraceSession(TraceOptions opts = {});
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The armed session, or nullptr. Always nullptr when telemetry is
  /// compiled out (hooks never fire).
  [[nodiscard]] static TraceSession* current();

  /// Key/value pairs for the exported document's "otherData" section
  /// (tool, command, threads, ...). Call from the coordinating thread.
  void set_meta(std::string key, std::string value);

  /// Chrome trace-event JSON. Call only after traced work has quiesced.
  [[nodiscard]] std::string to_json() const;

  /// Sum of per-ring drop counts (0 when nothing overflowed).
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// The calling thread's ring, registering it on first use. Internal
  /// (used by the hook implementations).
  [[nodiscard]] TraceRing* ring_for_this_thread();

 private:
  TraceOptions opts_;
  std::uint64_t start_ns_ = 0;  ///< steady-clock origin of the session
  mutable std::mutex mu_;       ///< guards rings_ registration and meta_
  std::vector<std::unique_ptr<TraceRing>> rings_;  ///< tid = index
  std::vector<std::pair<std::string, std::string>> meta_;
};

/// Absolute steady-clock nanoseconds (the event time base).
[[nodiscard]] std::uint64_t trace_now_ns();

/// RAII span: captures [construction, destruction) into the current
/// session's ring for this thread. A span constructed while no session is
/// armed (or with telemetry compiled out) costs one relaxed load and does
/// nothing. `name` must be a string literal.
class TraceSpan {
 public:
  TraceSpan(TraceCat cat, const char* name, std::uint64_t id = 0, std::uint64_t arg = 0) {
    if constexpr (kEnabled) begin(cat, name, id, arg);
  }
  ~TraceSpan() {
    if constexpr (kEnabled) {
      if (ring_ != nullptr) end();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Payload recorded at destruction (e.g. the result list size, known
  /// only at the end of the scope).
  void set_arg(std::uint64_t arg) {
    if constexpr (kEnabled) event_.arg = arg;
  }
  /// Child node ids for kNode spans (-1 = absent); feeds critical-path
  /// extraction in fpopt_trace.
  void set_children(std::int64_t left, std::int64_t right) {
    if constexpr (kEnabled) {
      event_.left = left;
      event_.right = right;
    }
  }

 private:
  void begin(TraceCat cat, const char* name, std::uint64_t id, std::uint64_t arg);
  void end();

  TraceRing* ring_ = nullptr;
  TraceEvent event_;
};

/// A point event on the current thread's ring; no-op when no session is
/// armed. `name` must be a string literal.
void trace_instant(TraceCat cat, const char* name, std::uint64_t id = 0,
                   std::uint64_t arg = 0);

/// Label the calling thread in the exported trace ("worker 2"). No-op
/// when no session is armed; safe to call on every pool start.
void trace_thread_name(const std::string& name);

}  // namespace fpopt::telemetry
