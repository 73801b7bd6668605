// anneal_incremental: area evaluation inside a search loop, the A10 regime
// of bench/ablation_incremental.cpp. FP3's 120 modules at N=60 (max_dim
// 96), K1=8, K2=10, unlimited budget, a balanced initial Polish expression
// and one run-local MemoCache. One op is one Metropolis move: random_move +
// to_tree + an incremental optimize + commit or rollback of the cache
// epoch. The workload seed drives the move sequence.
#include <cmath>
#include <optional>

#include "cache/memo_cache.h"
#include "harness.h"
#include "topology/polish.h"
#include "workload/floorplans.h"

namespace perfbench {

namespace {

using namespace fpopt;

constexpr double kMovesPerS = 3800;  // measured rate, README.md "Op counts"
/// The cache budget. A cache still filling makes moves cheaper than in
/// the steady state, and a larger one makes them dearer as it grows; 8 MiB
/// fills within 2,600-3,200 moves on every seed probed, and the warm-up
/// below runs past that, so every timed move sees a full cache and the
/// cost per move holds still over the run.
constexpr std::size_t kCacheBytes = 8u << 20;
constexpr std::size_t kWarmupMoves = 4000;
constexpr std::size_t kCrossCheckEvery = 500;  // moves re-run from scratch
constexpr std::size_t kWindowOps = 500;        // about an eighth of a second of moves
/// op_ms_tail's percentile. A move's p99 swung with host memory traffic
/// about twice as far as its median (IQR 0.24 of the median over ten
/// runs); p95 held at 0.07.
constexpr double kTailQ = 0.95;

void emit_balanced(std::size_t lo, std::size_t hi, bool vertical,
                   std::vector<PolishToken>& out) {
  if (hi - lo == 1) {
    out.push_back({static_cast<std::int32_t>(lo)});
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  emit_balanced(lo, mid, !vertical, out);
  emit_balanced(mid, hi, !vertical, out);
  out.push_back({vertical ? PolishToken::kV : PolishToken::kH});
}

OptimizerOptions scratch_options() {
  OptimizerOptions opts;
  opts.selection.k1 = 8;
  opts.selection.k2 = 10;
  opts.impl_budget = 0;
  return opts;
}

/// One annealing chain: its modules, cache, current expression and cost.
struct Chain {
  std::vector<Module> modules;
  MemoCache cache{kCacheBytes};
  OptimizerOptions opts = scratch_options();
  PolishExpr current;
  double area = 0;
  double temperature = 0;
  Pcg32 rng;
  std::size_t accepted = 0;

  explicit Chain(std::uint64_t seed) : rng(seed) {
    WorkloadConfig cfg;
    cfg.seed = 1;
    cfg.impls_per_module = 60;
    cfg.max_dim = 96;
    modules = make_fp3(cfg).modules();
    opts.incremental = true;
    opts.cache = &cache;
    std::vector<PolishToken> tokens;
    emit_balanced(0, modules.size(), true, tokens);
    current = PolishExpr::from_tokens_unchecked(std::move(tokens));
    const OptimizeOutcome initial = optimize_floorplan(current.to_tree(modules), opts);
    area = static_cast<double>(initial.best_area);
    temperature = 0.02 * area;  // accepts some uphill moves
  }

  /// One Metropolis move; returns its outcome's stats and best area, and
  /// the candidate expression when `keep` asks for it.
  OptimizeOutcome move(PolishExpr* keep) {
    PolishExpr candidate;
    {
      const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "bench.random_move");
      do {
        candidate = current;
      } while (!candidate.random_move(rng));
    }
    FloorplanTree tree;
    {
      const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "bench.to_tree");
      tree = candidate.to_tree(modules);
    }
    {
      const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "bench.epoch");
      cache.begin_epoch();
    }
    OptimizeOutcome outcome;
    {
      const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "bench.optimize_floorplan");
      outcome = optimize_floorplan(tree, opts);
    }
    const double next = static_cast<double>(outcome.best_area);
    const bool accept = !outcome.out_of_memory &&
                        (next <= area || rng.unit() < std::exp(-(next - area) / temperature));
    if (keep != nullptr) *keep = candidate;
    const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "bench.epoch");
    if (accept) {
      cache.commit_epoch();
      current = std::move(candidate);
      area = next;
      ++accepted;
    } else {
      cache.rollback_epoch();
    }
    return outcome;
  }
};

/// What a move leaves for the checks after the timed region.
struct MoveRecord {
  Area best_area = 0;
  bool out_of_memory = false;
  OptimizerStats stats;
  PolishExpr candidate;  ///< kept for the cross-checked subset only
};

}  // namespace

RunResult run_anneal(const Args& args) {
  RunResult r;
  r.tail_q = kTailQ;
  r.window_ops = kWindowOps;

  // Set-up: generate the modules, build the cache, prime the balanced
  // initial topology, and warm up with a fixed number of moves. The first
  // chain runs the ops; later set-ups build a chain and drop it.
  std::unique_ptr<Chain> chain;
  const auto setup = [&](std::size_t p) {
    const double t0 = now_s();
    auto fresh = std::make_unique<Chain>(args.seed);
    for (std::size_t i = 0; i < kWarmupMoves; ++i) (void)fresh->move(nullptr);
    const double seconds = now_s() - t0;
    if (p == 0) chain = std::move(fresh);
    return seconds;
  };

  const std::size_t ops = op_count(args.seconds, kMovesPerS, 1000);
  std::vector<MoveRecord> records;
  records.reserve(ops);
  const auto timed_move = [&](bool traced) {
    MoveRecord rec;
    const bool keep = records.size() % kCrossCheckEvery == 0;
    const double t0 = now_s();
    {
      std::optional<telemetry::TraceSpan> op;
      if (traced) op.emplace(telemetry::TraceCat::kPhase, "bench.op");
      const OptimizeOutcome outcome = chain->move(keep ? &rec.candidate : nullptr);
      rec.best_area = outcome.best_area;
      rec.out_of_memory = outcome.out_of_memory;
      rec.stats = outcome.stats;
    }
    const double ms = (now_s() - t0) * 1e3;
    records.push_back(std::move(rec));
    return ms;
  };

  if (!args.trace) {
    run_parts(ops, r, setup, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) r.op_ms.push_back(timed_move(false));
    });
    r.peak_rss_mb = peak_rss_mb();
  } else {
    // A third of the moves traced, 100 per armed session (about 300 events
    // a move stay inside the rings), each batch after 100 untraced moves.
    (void)setup(0);
    const MemoCacheStats before = chain->cache.stats();
    const std::size_t accepted_before = chain->accepted;
    LayerRollup roll;
    std::vector<double> untraced_ms;
    traced_batches(std::max<std::size_t>(ops / 3, 1000), 100, roll, r, untraced_ms, timed_move);
    rollup_layers(roll, r);
    const double n = static_cast<double>(roll.ops());
    const double moves = static_cast<double>(records.size());
    const MemoCacheStats& after = chain->cache.stats();
    const auto delta = [&](std::size_t a, std::size_t b) {
      return static_cast<double>(a - b) / moves;
    };
    auto& v = r.layers;
    v["topology.move_ms"] =
        (roll.self_ms("bench.random_move") + roll.self_ms("bench.to_tree")) / n;
    v["topology.accept_frac"] = delta(chain->accepted, accepted_before);
    const double probes = static_cast<double>(after.probes() - before.probes());
    v["cache.hit_rate"] = probes > 0 ? static_cast<double>(after.hits - before.hits) / probes : 0;
    v["cache.insertions"] = delta(after.insertions, before.insertions);
    v["cache.evictions"] = delta(after.evictions, before.evictions);
    v["cache.rollback_discards"] = delta(after.rollback_discards, before.rollback_discards);
    v["cache.peak_mb"] = static_cast<double>(after.peak_bytes) / (1024.0 * 1024.0);
    v["trace.overhead_frac"] = overhead_frac(r.op_ms, untraced_ms);
    std::vector<OptimizerStats> stats;
    for (const MoveRecord& rec : records) stats.push_back(rec.stats);
    stats_layers(stats, std::vector<std::size_t>(stats.size(), leaf_impls(chain->modules)), r);
  }

  // Checks, outside the timed region: no move ran out of memory (the
  // budget is unlimited), and every kCrossCheckEvery-th move's area equals
  // a scratch optimize of the same candidate.
  const OptimizerOptions scratch = scratch_options();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const MoveRecord& rec = records[i];
    bool ok = !rec.out_of_memory && rec.best_area > 0;
    std::string what = "move " + std::to_string(i) + ": area " + std::to_string(rec.best_area);
    if (ok && !rec.candidate.tokens().empty()) {
      const OptimizeOutcome fresh =
          optimize_floorplan(rec.candidate.to_tree(chain->modules), scratch);
      ok = !fresh.out_of_memory && fresh.best_area == rec.best_area;
      what += ", scratch " + std::to_string(fresh.best_area);
    }
    r.tally(ok, what);
    r.peak_impls = std::max(r.peak_impls, static_cast<double>(rec.stats.peak_stored));
  }
  return r;
}

}  // namespace perfbench
