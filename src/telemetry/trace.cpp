#include "telemetry/trace.h"

#include <cassert>
#include <chrono>

#include "telemetry/json.h"

namespace fpopt::telemetry {
namespace {

// The armed session. Hooks take the relaxed fast path (load, compare to
// the thread-local cache); registration synchronizes under the session
// mutex, and the arm/disarm edges happen while no instrumented work runs
// (the session lifecycle rule), so acquire/release ordering on this
// pointer is only needed at those quiet edges.
std::atomic<TraceSession*> g_session{nullptr};

// Bumped on every arm. The thread-local cache below is validated against
// (session pointer, arm epoch): pointer equality alone is not enough,
// because a later session constructed at the address of a destroyed one
// (same stack slot across sequential runs) would revive a cache entry
// whose ring was freed with the old session.
std::atomic<std::uint64_t> g_arm_epoch{0};

// Per-thread cache of the resolved ring so the hot path never locks.
struct ThreadSlot {
  TraceSession* session = nullptr;
  std::uint64_t epoch = 0;
  TraceRing* ring = nullptr;
};
thread_local ThreadSlot t_slot;

TraceRing* acquire_ring() {
  // acquire: pairs with the release CAS in the TraceSession constructor,
  // so a non-null session implies its rings are fully constructed.
  TraceSession* session = g_session.load(std::memory_order_acquire);
  if (session == nullptr) return nullptr;
  // Relaxed is enough: the epoch only changes at arm/disarm edges, which
  // the lifecycle rule places outside any instrumented work.
  const std::uint64_t epoch = g_arm_epoch.load(std::memory_order_relaxed);
  if (t_slot.session == session && t_slot.epoch == epoch) return t_slot.ring;
  TraceRing* ring = session->ring_for_this_thread();
  t_slot = {session, epoch, ring};
  return ring;
}

}  // namespace

const char* trace_cat_name(TraceCat cat) {
  switch (cat) {
    case TraceCat::kPhase: return "phase";
    case TraceCat::kNode: return "node";
    case TraceCat::kKernel: return "kernel";
    case TraceCat::kCache: return "cache";
    case TraceCat::kPool: return "pool";
    case TraceCat::kAnneal: return "anneal";
  }
  return "unknown";
}

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceSession::TraceSession(TraceOptions opts) : opts_(opts), start_ns_(trace_now_ns()) {
  if constexpr (kEnabled) {
    TraceSession* expected = nullptr;
    // release on success: publishes this fully-constructed session to the
    // acquire load in acquire_ring(); relaxed on failure (assert path).
    const bool armed =
        g_session.compare_exchange_strong(expected, this, std::memory_order_release,
                                          std::memory_order_relaxed);
    assert(armed && "only one TraceSession may be armed at a time");
    (void)armed;
    // relaxed: the epoch only changes at arm/disarm edges, outside any
    // instrumented work (see acquire_ring).
    g_arm_epoch.fetch_add(1, std::memory_order_relaxed);
  }
}

TraceSession::~TraceSession() {
  if constexpr (kEnabled) {
    TraceSession* expected = this;
    // release: makes every ring write of this session visible before any
    // later session re-arms; relaxed on failure (already disarmed).
    g_session.compare_exchange_strong(expected, nullptr, std::memory_order_release,
                                      std::memory_order_relaxed);
  }
}

TraceSession* TraceSession::current() {
  if constexpr (!kEnabled) return nullptr;
  // relaxed: callers only use the pointer from the arming thread, which
  // created the session; cross-thread access goes through acquire_ring.
  return g_session.load(std::memory_order_relaxed);
}

void TraceSession::set_meta(std::string key, std::string value) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : meta_) {
    if (kv.first == key) {
      kv.second = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

TraceRing* TraceSession::ring_for_this_thread() {
  const std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<TraceRing>(opts_.ring_capacity));
  return rings_.back().get();
}

std::uint64_t TraceSession::dropped_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

std::string TraceSession::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) dropped += ring->dropped();

  JsonWriter w(/*pretty=*/true);
  w.begin_object().key("displayTimeUnit").str("ms");
  w.key("otherData").begin_object();
  for (const auto& [key, value] : meta_) w.key(key).str(value);
  w.key("telemetry").str(kEnabled ? "on" : "off");
  w.key("dropped_events").str(std::to_string(dropped));
  w.end_object();
  w.key("traceEvents").begin_array();
  for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
    const TraceRing& ring = *rings_[tid];
    if (!ring.name.empty()) {
      w.begin_object().key("name").str("thread_name").key("ph").str("M");
      w.key("pid").u64(1).key("tid").u64(tid);
      w.key("args").begin_object().key("name").str(ring.name).end_object();
      w.end_object();
    }
    for (const TraceEvent& e : ring.events()) {
      // Rebase onto the session start; an event stamped before arming
      // (impossible under the lifecycle rule, but cheap to guard) clamps
      // to zero rather than wrapping.
      const std::uint64_t rel_ns = e.start_ns >= start_ns_ ? e.start_ns - start_ns_ : 0;
      w.begin_object().key("name").str(e.name != nullptr ? e.name : "");
      w.key("cat").str(trace_cat_name(e.cat));
      w.key("ph").str(e.instant ? "i" : "X");
      if (e.instant) w.key("s").str("t");
      w.key("pid").u64(1).key("tid").u64(tid);
      w.key("ts").num(static_cast<double>(rel_ns) / 1000.0);
      if (!e.instant) w.key("dur").num(static_cast<double>(e.dur_ns) / 1000.0);
      w.key("args").begin_object().key("id").u64(e.id).key("arg").u64(e.arg);
      if (e.left >= 0) w.key("left").i64(e.left);
      if (e.right >= 0) w.key("right").i64(e.right);
      w.end_object().end_object();
    }
  }
  w.end_array().end_object();
  return std::move(w).text() + "\n";
}

void TraceSpan::begin(TraceCat cat, const char* name, std::uint64_t id,
                      std::uint64_t arg) {
  ring_ = acquire_ring();
  if (ring_ == nullptr) return;
  event_.name = name;
  event_.cat = cat;
  event_.id = id;
  event_.arg = arg;
  event_.start_ns = trace_now_ns();
}

void TraceSpan::end() {
  event_.dur_ns = trace_now_ns() - event_.start_ns;
  ring_->push(event_);
}

void trace_instant(TraceCat cat, const char* name, std::uint64_t id, std::uint64_t arg) {
  if constexpr (!kEnabled) return;
  TraceRing* ring = acquire_ring();
  if (ring == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.id = id;
  e.arg = arg;
  e.start_ns = trace_now_ns();
  e.instant = true;
  ring->push(e);
}

void trace_thread_name(const std::string& name) {
  if constexpr (!kEnabled) return;
  TraceRing* ring = acquire_ring();
  if (ring == nullptr) return;
  if (ring->name.empty()) ring->name = name;
}

}  // namespace fpopt::telemetry
