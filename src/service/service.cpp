#include "service/service.h"

#include <sstream>

#include "floorplan/serialize.h"
#include "service/metrics.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace fpopt {

bool DispatchGate::acquire(int priority,
                           const std::optional<Clock::time_point>& deadline) {
  std::unique_lock<std::mutex> lk(mu_);
  // A deadline already in the past sheds unconditionally — "never runs"
  // must hold even when a slot is free (deadline_ms: 0 is the
  // deterministic always-shed request the tests lean on).
  if (deadline.has_value() && Clock::now() >= *deadline) {  // FPOPT-LINT-OK(wall-clock): deadline shedding, traffic policy only
    ++shed_;
    return false;
  }
  if (slots_ == 0) return true;
  const std::pair<int, std::uint64_t> me{-priority, next_seq_++};
  queue_.insert(me);
  const auto ready = [&] { return in_use_ < slots_ && *queue_.begin() == me; };
  while (!ready()) {
    if (deadline.has_value()) {
      if (cv_.wait_until(lk, *deadline) == std::cv_status::timeout && !ready()) {
        queue_.erase(me);
        ++shed_;
        // The slot this waiter was competing for may now belong to a
        // lower-priority one; let the queue re-evaluate.
        cv_.notify_all();
        return false;
      }
    } else {
      cv_.wait(lk);
    }
  }
  queue_.erase(me);
  ++in_use_;
  // More than one slot may be free; wake the next-best waiter too.
  cv_.notify_all();
  return true;
}

void DispatchGate::release() {
  if (slots_ == 0) return;  // unlimited gate: acquire took nothing
  {
    std::lock_guard<std::mutex> lk(mu_);
    --in_use_;
  }
  cv_.notify_all();
}

std::size_t DispatchGate::waiting() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::array<std::size_t, 3> DispatchGate::waiting_by_priority() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::array<std::size_t, 3> out{};
  for (const auto& [neg_priority, seq] : queue_) {
    (void)seq;
    const int p = -neg_priority;
    if (p >= 0 && p < 3) ++out[static_cast<std::size_t>(p)];
  }
  return out;
}

unsigned DispatchGate::in_use() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_use_;
}

std::uint64_t DispatchGate::shed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shed_;
}

Service::Service(ServiceConfig config)
    : config_(config), gate_(config.max_inflight) {
  if (config_.pool_workers > 0) pool_.emplace(config_.pool_workers);
  if (config_.shared_cache) cache_.emplace(config_.cache_bytes);
  if (config_.metrics) {
    metrics_ = std::make_unique<ServiceMetrics>(gate_, cache_.has_value() ? &*cache_ : nullptr);
    metrics_->attach_log(config_.log);
  }
}

Service::~Service() = default;

ServiceStats Service::stats() const {
  ServiceStats s;
  // Counters only report; they synchronize nothing.
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_error = requests_error_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.requests_shed = gate_.shed();
  return s;
}

std::string Service::handle_frame(const std::string& frame) {
  const telemetry::StopWatch watch;
  // relaxed: ids only need to be unique and increasing as a set; nothing
  // orders against their allocation.
  const std::uint64_t request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Counters only report; they synchronize nothing, so relaxed suffices.
  frames_.fetch_add(1, std::memory_order_relaxed);

  ServiceRequest request;
  RequestOutcome outcome;
  std::string response;
  if (config_.max_frame_bytes != 0 && frame.size() > config_.max_frame_bytes) {
    outcome.error = ServiceErrorCode::kOversized;
    response = build_error_response(
        "null",
        {ServiceErrorCode::kOversized,
         "frame of " + std::to_string(frame.size()) + " bytes exceeds the limit of " +
             std::to_string(config_.max_frame_bytes)},
        "");
  } else {
    ServiceError error;
    if (!decode_request(frame, request, error)) {
      outcome.error = error.code;
      response = build_error_response(request.id_json, error, "");
    } else {
      try {
        response = handle_request(request, request_id, outcome);
      } catch (const std::exception& e) {
        outcome.ok = false;
        outcome.error = ServiceErrorCode::kInternal;
        response = build_error_response(request.id_json,
                                        {ServiceErrorCode::kInternal, e.what()}, "");
      } catch (...) {
        outcome.ok = false;
        outcome.error = ServiceErrorCode::kInternal;
        response = build_error_response(
            request.id_json, {ServiceErrorCode::kInternal, "unknown failure"}, "");
      }
    }
  }
  // Counters only report; they synchronize nothing, so relaxed suffices.
  (outcome.ok ? requests_ok_ : requests_error_).fetch_add(1, std::memory_order_relaxed);

  const double seconds = watch.seconds();
  if (metrics_ != nullptr) {
    metrics_->outcome(outcome.ok, outcome.error).inc();
    metrics_->request_seconds().observe_seconds(seconds);
    if (outcome.dispatched) {
      metrics_->execute_seconds().observe_seconds(outcome.execute_seconds);
      metrics_->queue_wait_seconds(request.priority).observe_seconds(outcome.gate_wait_seconds);
    }
  }
  log_request(request, request_id, outcome, seconds);
  return response;
}

std::string Service::handle_request(const ServiceRequest& request, std::uint64_t request_id,
                                    RequestOutcome& outcome) {
  const auto fail = [&](ServiceErrorCode code, const std::string& message,
                        const std::string& report_json = std::string()) {
    outcome.error = code;
    return build_error_response(request.id_json, {code, message}, report_json);
  };

  if (request.spec.command == "ping") {
    outcome.ok = true;
    return build_ok_response(request.id_json, "pong\n", "");
  }
  if (request.spec.command == "shutdown") {
    // Release pairs with the acquire load in shutdown_requested(): a
    // transport that observes the flag also observes this response.
    shutdown_.store(true, std::memory_order_release);
    outcome.ok = true;
    return build_ok_response(request.id_json, "shutting down\n", "");
  }
  if (request.spec.command == "metrics") return handle_metrics_verb(request, outcome);
  if (request.spec.command == "trace") return handle_trace_verb(request, outcome);

  // Admission control: a request that names no budget runs under the
  // server's default cap (0 = unlimited, the CLI default).
  CommandSpec spec = request.spec;
  if (!request.budget_set && config_.default_impl_budget > 0) {
    spec.options.impl_budget = config_.default_impl_budget;
  }

  // Dispatch gate, ahead of any per-request work: a shed request burns no
  // parse or optimize cycles. The deadline is relative to decode time.
  std::optional<DispatchGate::Clock::time_point> deadline;
  if (request.deadline_ms.has_value()) {
    deadline = DispatchGate::Clock::now() +  // FPOPT-LINT-OK(wall-clock): deadline anchor, traffic policy only
               std::chrono::milliseconds(*request.deadline_ms);
  }
  const telemetry::StopWatch gate_watch;
  if (!gate_.acquire(request.priority, deadline)) {
    return fail(ServiceErrorCode::kDeadline,
                "deadline of " + std::to_string(*request.deadline_ms) +
                    " ms expired before dispatch");
  }
  outcome.gate_wait_seconds = gate_watch.seconds();
  outcome.dispatched = true;
  if (deadline.has_value()) {
    outcome.deadline_slack_ms =
        std::chrono::duration<double, std::milli>(  // FPOPT-LINT-OK(wall-clock): log/metric measurement of remaining deadline, never control flow
            *deadline - DispatchGate::Clock::now())
            .count();
  }
  struct GateSlot {
    DispatchGate& gate;
    ~GateSlot() { gate.release(); }
  } slot{gate_};
  struct ExecScope {
    ServiceMetrics* metrics;
    explicit ExecScope(ServiceMetrics* m) : metrics(m) {
      if (metrics != nullptr) metrics->begin_execute();
    }
    ~ExecScope() {
      if (metrics != nullptr) metrics->end_execute();
    }
  } exec_scope{metrics_.get()};

  FloorplanTree tree;
  try {
    tree = parse_floorplan(request.topology, parse_module_library(request.library));
  } catch (const ParseError& e) {
    return fail(ServiceErrorCode::kInput, std::string("parse error: ") + e.what());
  }
  {
    const auto problems = tree.validate();
    if (!problems.empty()) {
      return fail(ServiceErrorCode::kInput, "invalid floorplan: " + problems.front());
    }
  }

  // Per-request isolation: an incremental run gets its own session over
  // the shared cache. The session publishes only on success; every
  // failure path below leaves the shared store byte-exactly as the
  // committed trajectories built it.
  std::optional<CacheSession> session;
  CommandEnv env;
  env.pool = pool_.has_value() ? &*pool_ : nullptr;
  if (spec.options.incremental && cache_.has_value()) {
    session.emplace(*cache_);
    env.cache = &*session;
  }

  // Request-trace capture. A traced request runs alone: it serializes
  // against other captures (trace_capture_mu_) and takes the execution
  // lock exclusively while untraced runs hold it shared — the armed
  // TraceSession therefore records exactly this request's spans, and the
  // export below happens after provable quiescence. Untraced requests pay
  // one shared-lock acquisition, and only when request tracing is on.
  const bool trace_enabled = config_.trace_requests > 0;
  // relaxed: the arrival index only feeds every-Nth sampling; no ordering.
  const std::uint64_t run_index = run_seq_.fetch_add(1, std::memory_order_relaxed);
  const bool traced =
      trace_enabled && (request.trace || (config_.trace_sample > 0 &&
                                          run_index % config_.trace_sample == 0));
  std::unique_lock<std::mutex> capture_lock;
  std::unique_lock<std::shared_mutex> exclusive_exec;
  std::shared_lock<std::shared_mutex> shared_exec;
  std::optional<telemetry::TraceSession> trace_session;
  std::optional<telemetry::TraceSpan> request_span;
  if (traced) {
    capture_lock = std::unique_lock<std::mutex>(trace_capture_mu_);
    exclusive_exec = std::unique_lock<std::shared_mutex>(exec_mu_);
    trace_session.emplace();
    trace_session->set_meta("tool", "fpoptd");
    trace_session->set_meta("command", spec.command);
    trace_session->set_meta("request_id", std::to_string(request_id));
    telemetry::trace_thread_name("fpoptd-request");
    // The whole request becomes one span whose identity *is* the
    // server-assigned request id — fpopt_trace sees the correlation.
    request_span.emplace(telemetry::TraceCat::kPhase, "request", request_id);
  } else if (trace_enabled) {
    shared_exec = std::shared_lock<std::shared_mutex>(exec_mu_);
  }

  telemetry::RunReport report("fpoptd", spec.command);
  telemetry::RunReport* report_ptr = request.want_report ? &report : nullptr;
  std::ostringstream out;
  const telemetry::StopWatch exec_watch;
  const auto finalize_trace = [&] {
    if (!trace_session.has_value()) return;
    request_span.reset();  // close the request span before export
    RetainedTrace rt;
    rt.request_id = request_id;
    rt.command = spec.command;
    rt.seconds = outcome.execute_seconds;
    rt.dropped_events = trace_session->dropped_events();
    rt.json = trace_session->to_json();
    trace_session.reset();  // disarm before the locks release
    outcome.traced = true;
    if (metrics_ != nullptr && rt.dropped_events > 0) {
      metrics_->trace_events_dropped().add(rt.dropped_events);
    }
    if (config_.log != nullptr) {
      telemetry::LogEvent(config_.log, telemetry::LogLevel::kDebug, "request_trace")
          .num("request_id", rt.request_id)
          .str("command", rt.command)
          .dbl("execute_seconds", rt.seconds)
          .num("dropped_events", rt.dropped_events);
    }
    retain_trace(std::move(rt));
  };
  try {
    execute_command(spec, tree, env, out, report_ptr);
    outcome.execute_seconds = exec_watch.seconds();
  } catch (const CommandError& e) {
    outcome.execute_seconds = exec_watch.seconds();
    finalize_trace();
    if (session.has_value()) session->rollback();
    // An over-budget abort still reports (aborted=true), exactly like
    // `fpopt --stats` on the same inputs — the report rode through
    // execute_command before the abort surfaced.
    const std::string report_json =
        (request.want_report && e.over_budget) ? report.body_json() : std::string();
    return fail(e.over_budget ? ServiceErrorCode::kBudget : ServiceErrorCode::kOption,
                e.message, report_json);
  } catch (...) {
    outcome.execute_seconds = exec_watch.seconds();
    finalize_trace();
    if (session.has_value()) session->rollback();
    throw;
  }
  finalize_trace();
  if (session.has_value()) {
    outcome.cache_hits = session->stats().hits;
    session->commit();
  }
  outcome.ok = true;
  return build_ok_response(request.id_json, out.str(),
                           request.want_report ? report.body_json() : std::string());
}

std::string Service::handle_metrics_verb(const ServiceRequest& request,
                                         RequestOutcome& outcome) {
  if (metrics_ == nullptr) {
    outcome.error = ServiceErrorCode::kOption;
    return build_error_response(
        request.id_json,
        {ServiceErrorCode::kOption, "metrics are disabled in this server's configuration"}, "");
  }
  const std::string body = request.format == "prometheus" ? metrics_->registry().to_prometheus()
                                                          : metrics_->registry().to_json();
  outcome.ok = true;
  return build_ok_response(request.id_json, body, "");
}

std::string Service::handle_trace_verb(const ServiceRequest& request, RequestOutcome& outcome) {
  const auto fail = [&](const std::string& message) {
    outcome.error = ServiceErrorCode::kOption;
    return build_error_response(request.id_json, {ServiceErrorCode::kOption, message}, "");
  };
  if (config_.trace_requests == 0) {
    return fail("request tracing is off (start fpoptd with --trace-requests)");
  }
  std::lock_guard<std::mutex> lock(traces_mu_);
  const std::string pick = request.pick.empty() ? "recent" : request.pick;
  if (pick == "list") {
    telemetry::JsonWriter body;
    const auto entry = [&body](const RetainedTrace& rt) {
      body.begin_object().key("request_id").u64(rt.request_id).key("command").str(rt.command);
      body.key("seconds").num(rt.seconds).key("dropped_events").u64(rt.dropped_events);
      body.end_object();
    };
    body.begin_object().key("fpopt_request_traces").begin_object();
    body.key("schema_version").u64(1).key("recent").begin_array();
    for (const RetainedTrace& rt : traces_) entry(rt);
    body.end_array().key("slowest");
    if (have_slowest_) {
      entry(slowest_);
    } else {
      body.raw("null");
    }
    body.end_object().end_object();
    outcome.ok = true;
    return build_ok_response(request.id_json, body.text() + "\n", "");
  }
  if (pick == "slowest") {
    if (!have_slowest_) return fail("no request trace retained yet");
    outcome.ok = true;
    return build_ok_response(request.id_json, slowest_.json, "");
  }
  if (traces_.empty()) return fail("no request trace retained yet");
  outcome.ok = true;
  return build_ok_response(request.id_json, traces_.back().json, "");
}

void Service::retain_trace(RetainedTrace trace) {
  std::lock_guard<std::mutex> lock(traces_mu_);
  if (!have_slowest_ || trace.seconds > slowest_.seconds) {
    slowest_ = trace;
    have_slowest_ = true;
  }
  traces_.push_back(std::move(trace));
  while (traces_.size() > config_.trace_requests) traces_.pop_front();
}

void Service::log_request(const ServiceRequest& request, std::uint64_t request_id,
                          const RequestOutcome& outcome, double seconds) {
  telemetry::LogSink* sink = config_.log;
  if (sink == nullptr || !sink->enabled(telemetry::LogLevel::kInfo)) return;
  telemetry::LogEvent ev(sink, telemetry::LogLevel::kInfo, "request");
  ev.num("request_id", request_id);
  ev.str("id", request.id_json);
  ev.str("command", request.spec.command.empty() ? "?" : request.spec.command);
  ev.str("outcome", outcome.ok ? "ok" : to_string(outcome.error));
  ev.dbl("latency_ms", seconds * 1e3);
  if (outcome.dispatched) {
    ev.num_signed("priority", request.priority);
    ev.dbl("queue_ms", outcome.gate_wait_seconds * 1e3);
    ev.dbl("execute_ms", outcome.execute_seconds * 1e3);
    if (request.deadline_ms.has_value()) ev.num("deadline_ms", *request.deadline_ms);
    if (outcome.deadline_slack_ms.has_value()) {
      ev.dbl("deadline_slack_ms", *outcome.deadline_slack_ms);
    }
    ev.num("cache_hits", outcome.cache_hits);
    if (outcome.traced) ev.flag("traced", true);
  }
}

}  // namespace fpopt
