#include "optimize/optimizer.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <limits>
#include <optional>

#include "cache/cache_key.h"
#include "cache/memo_cache.h"
#include "core/l_selection.h"
#include "runtime/thread_pool.h"
#include "telemetry/trace.h"

#if defined(FPOPT_VALIDATE)
#include <string>

#include "check/check_shapes.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

namespace fpopt {

const LImpl* NodeResult::find_l(std::uint32_t id) const {
  for (const LList& list : lset.lists()) {
    for (const LEntry& e : list) {
      if (e.id == id) return &e.shape;
    }
  }
  return nullptr;
}

namespace {

/// Evaluates one T' node from its children's (already computed)
/// NodeResults, charging the BudgetTracker and counting into the stats it
/// is handed; Engine::evaluate gives every node its own of both.
class NodeEvaluator {
 public:
  NodeEvaluator(const FloorplanTree& tree, const OptimizerOptions& opts, OptimizeArtifacts& art,
                BudgetTracker& budget, OptimizerStats& stats)
      : tree_(tree), opts_(opts), art_(art), budget_(budget), stats_(stats) {}

  /// Both children of `node` (if any) must already have their NodeResult.
  void eval_node(const BinaryNode& node) {
    // Trace identity is the node id; the child links let fpopt_trace
    // rebuild the T' dependency DAG for critical-path extraction. The
    // arg (result list size) is deterministic — bit-identical results at
    // every thread count — so it participates in trace diffs.
    telemetry::TraceSpan span(telemetry::TraceCat::kNode, "eval_node", node.id);
    span.set_children(node.left ? static_cast<std::int64_t>(node.left->id) : -1,
                      node.right ? static_cast<std::int64_t>(node.right->id) : -1);
    ++stats_.nodes_evaluated;
    NodeResult res;
    switch (node.op) {
      case BinaryOp::LeafModule: {
        const RList& impls = tree_.module(node.module_id).impls;
        res.rlist = impls;
        res.rprov.resize(impls.size());
        for (std::size_t i = 0; i < impls.size(); ++i) {
          res.rprov[i] = {static_cast<std::uint32_t>(i), 0};
        }
        budget_.add_stored(impls.size());
        break;
      }
      case BinaryOp::SliceH:
      case BinaryOp::SliceV:
        store_rect(res, combine_slice(rect_of(*node.left), rect_of(*node.right),
                                      node.op == BinaryOp::SliceH, budget_, stats_));
        break;
      case BinaryOp::WheelStack:
        store_l(res, combine_wheel_stack(rect_of(*node.left), rect_of(*node.right),
                                         opts_.l_pruning, budget_, stats_));
        break;
      case BinaryOp::WheelFillNotch:
        store_l(res, combine_wheel_fill_notch(lset_of(*node.left), rect_of(*node.right),
                                              opts_.l_pruning, budget_, stats_));
        break;
      case BinaryOp::WheelExtend:
        store_l(res, combine_wheel_extend(lset_of(*node.left), rect_of(*node.right),
                                          opts_.l_pruning, budget_, stats_));
        break;
      case BinaryOp::WheelClose:
        store_rect(res, combine_wheel_close(lset_of(*node.left), rect_of(*node.right), budget_,
                                            stats_));
        break;
    }
    span.set_arg(res.is_l ? res.lset.total_size() : res.rlist.size());
    art_.nodes[node.id] = std::make_shared<NodeResult>(std::move(res));
  }

 private:
  [[nodiscard]] const RList& rect_of(const BinaryNode& child) const {
    const NodeResult& res = *art_.nodes[child.id];
    assert(!res.is_l);
    return res.rlist;
  }

  [[nodiscard]] const LListSet& lset_of(const BinaryNode& child) const {
    const NodeResult& res = *art_.nodes[child.id];
    assert(res.is_l);
    return res.lset;
  }

  /// Store a rectangular block's list; apply R_Selection when it exceeds K1.
  void store_rect(NodeResult& res, RCombineResult&& combined) {
    budget_.add_stored(combined.list.size());  // the full non-redundant list is stored first
    stats_.max_rlist_len = std::max(stats_.max_rlist_len, combined.list.size());
    const SelectionConfig& sel = opts_.selection;
    if (sel.k1 != 0 && combined.list.size() > sel.k1) {
      const SelectionResult picked = r_selection(combined.list, sel.k1, sel.dp);
      ++stats_.cspp_calls;
      if (sel.dp != SelectionDp::Generic) ++stats_.cspp_monge_calls;
      const std::size_t removed = combined.list.size() - picked.kept.size();
      std::vector<Prov> prov;
      prov.reserve(picked.kept.size());
      for (std::size_t idx : picked.kept) prov.push_back(combined.prov[idx]);
      combined.list = combined.list.subset(picked.kept);
      combined.prov = std::move(prov);
      budget_.sub_stored(removed);
      ++stats_.r_selection_calls;
      stats_.r_selected_away += removed;
      stats_.r_selection_error += picked.error;
    }
    res.is_l = false;
    res.rlist = std::move(combined.list);
    res.rprov = std::move(combined.prov);
#if defined(FPOPT_VALIDATE)
    CheckResult post = check_r_list(res.rlist, "stored node list");
    if (res.rprov.size() != res.rlist.size()) {
      post.add("optimizer/provenance", "stored node list",
               "provenance size does not match the implementation list");
    }
    enforce(post, "NodeEvaluator::store_rect");
#endif
  }

  /// Store an L block's set: remove cross-chain redundancy (that is what
  /// [9] keeps: only non-redundant implementations), then apply the
  /// Section 5 L_Selection policy when the set exceeds K2.
  void store_l(NodeResult& res, LCombineResult&& combined) {
    if (opts_.l_pruning != LPruning::PerChain) {
      telemetry::TraceSpan span(telemetry::TraceCat::kKernel, "canonicalize",
                                combined.set.total_size(), combined.set.list_count());
      budget_.sub_stored(combined.set.canonicalize());
    }
    stats_.max_llist_len = std::max(stats_.max_llist_len, combined.set.total_size());
    const SelectionConfig& sel = opts_.selection;
    if (sel.k2 != 0) {
      const LSelectionOptions lopts{sel.metric, sel.dp, sel.heuristic_cap,
                                    LHeuristic::UniformSubsample};
      const LReductionReport report = reduce_l_set(combined.set, sel.k2, sel.theta, lopts);
      if (report.triggered) {
        budget_.sub_stored(report.before - report.after);
        ++stats_.l_selection_calls;
        stats_.l_selected_away += report.before - report.after;
        stats_.l_selection_error += report.total_error;
        stats_.cspp_calls += report.cspp_calls;
        stats_.cspp_monge_calls += report.cspp_monge_calls;
        stats_.l_heuristic_prereductions += report.heuristic_prereductions;
      }
    }
    res.is_l = true;
    res.lset = std::move(combined.set);
    res.lprov = std::move(combined.prov);
#if defined(FPOPT_VALIDATE)
    // Cross-chain redundancy is legitimate under PerChain pruning.
    CheckResult post =
        check_l_list_set(res.lset, opts_.l_pruning != LPruning::PerChain, "stored node set");
    for (const LList& list : res.lset.lists()) {
      for (const LEntry& e : list) {
        if (e.id >= res.lprov.size() && post.room_for_more()) {
          post.add("optimizer/provenance", "stored node set",
                   "L entry id " + std::to_string(e.id) + " has no provenance record");
        }
      }
    }
    enforce(post, "NodeEvaluator::store_l");
#endif
  }

  const FloorplanTree& tree_;
  const OptimizerOptions& opts_;
  OptimizeArtifacts& art_;
  BudgetTracker& budget_;
  OptimizerStats& stats_;
};

/// Fold `from`'s additive counters (and the order-independent max-folds)
/// into `into`. The peak fields are *not* additive; fold_profiles handles
/// them.
void accumulate_counters(OptimizerStats& into, const OptimizerStats& from) {
  into.total_generated += from.total_generated;
  into.nodes_evaluated += from.nodes_evaluated;
  into.r_selection_calls += from.r_selection_calls;
  into.l_selection_calls += from.l_selection_calls;
  into.r_selected_away += from.r_selected_away;
  into.l_selected_away += from.l_selected_away;
  into.cspp_calls += from.cspp_calls;
  into.cspp_monge_calls += from.cspp_monge_calls;
  into.l_heuristic_prereductions += from.l_heuristic_prereductions;
  into.max_rlist_len = std::max(into.max_rlist_len, from.max_rlist_len);
  into.max_llist_len = std::max(into.max_llist_len, from.max_llist_len);
  into.r_selection_error += from.r_selection_error;
  into.l_selection_error += from.l_selection_error;
}

constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

// ---- per-node profiles ---------------------------------------------------
//
// The engine evaluates every node against its own BudgetTracker and
// records the node's memory profile (net stored delta, intra-node peaks)
// plus its additive stats counters. A node's combine/selection work is a
// pure function of its children, so its profile does not depend on the
// schedule, and a node served from the memo cache carries the profile it
// was recorded with (a cached subtree is structurally identical to the
// one that produced the record). Folding the profiles in postorder
// therefore yields the stats of [9]'s serial run.

struct NodeProfile {
  OptimizerStats stats;            ///< this node's counters only
  std::size_t net_stored = 0;      ///< stored delta the node leaves behind
  std::size_t peak_stored = 0;     ///< intra-node peak, relative to entry
  std::size_t peak_transient = 0;  ///< intra-node transient peak
  std::size_t peak_total = 0;      ///< intra-node stored+transient peak
  std::size_t subtree_net = 0;     ///< net_stored summed over the subtree
  bool done = false;               ///< served or evaluated
  bool tripped = false;            ///< hit the budget: the profile holds what it reached
};

/// Flattened view of T': node pointers, parents and the serial
/// (postorder) evaluation order, all indexed by BinaryNode::id.
struct FlatTree {
  std::vector<const BinaryNode*> nodes;
  std::vector<std::size_t> parent;
  std::vector<std::size_t> postorder;

  explicit FlatTree(const BinaryTree& btree) {
    nodes.resize(btree.node_count, nullptr);
    parent.resize(btree.node_count, kNoParent);
    postorder.reserve(btree.node_count);
    flatten(*btree.root, kNoParent);
  }

 private:
  void flatten(const BinaryNode& node, std::size_t par) {
    nodes[node.id] = &node;
    parent[node.id] = par;
    if (node.left) flatten(*node.left, node.id);
    if (node.right) flatten(*node.right, node.id);
    postorder.push_back(node.id);  // children pushed above => postorder
  }
};

[[nodiscard]] std::size_t children_subtree_net(const BinaryNode& node,
                                               const std::vector<NodeProfile>& profiles) {
  std::size_t net = 0;
  if (node.left) net += profiles[node.left->id].subtree_net;
  if (node.right) net += profiles[node.right->id].subtree_net;
  return net;
}

/// The serial run's stats, folded from the per-node profiles: stored at a
/// node's entry is the prefix sum of earlier nets, and transient is zero
/// between nodes (TransientScope is node-local). After an abort, nodes
/// that never ran are skipped, and the fold ends with the first node that
/// hit the budget, which contributes what it reached.
[[nodiscard]] OptimizerStats fold_profiles(const FlatTree& flat,
                                           const std::vector<NodeProfile>& profiles) {
  OptimizerStats stats;
  std::size_t prefix = 0;
  for (const std::size_t id : flat.postorder) {
    const NodeProfile& prof = profiles[id];
    if (!prof.done) continue;
    stats.peak_stored = std::max(stats.peak_stored, prefix + prof.peak_stored);
    stats.peak_transient = std::max(stats.peak_transient, prof.peak_transient);
    stats.peak_live = std::max(stats.peak_live, prefix + prof.peak_total);
    prefix += prof.net_stored;
    accumulate_counters(stats, prof.stats);
    if (prof.tripped) break;
  }
  stats.final_stored = prefix;
  return stats;
}

/// The memo-cache pre- and post-pass of an incremental run. Both passes
/// run on the coordinating thread only, in postorder, so LRU touches,
/// insertions and evictions are identical for every thread count.
class CacheBinding {
 public:
  CacheBinding(CacheView& cache, const FloorplanTree& tree, const OptimizerOptions& opts,
               const OptimizeArtifacts& art)
      : cache_(cache),
        keys_(derive_node_keys(art.btree, tree, opts)),
        served_(art.btree.node_count, 0) {}

  /// Probe every internal node; share hits' results with the artifacts
  /// and load their recorded profiles (leaves are always evaluated — they
  /// are a plain copy of the module library anyway).
  void serve(const FlatTree& flat, OptimizeArtifacts& art, std::vector<NodeProfile>& profiles) {
    telemetry::TraceSpan span(telemetry::TraceCat::kCache, "serve_pass");
    std::uint64_t hits = 0;
    for (const std::size_t id : flat.postorder) {
      if (flat.nodes[id]->is_leaf()) continue;
      const CacheEntry* entry = cache_.find(keys_[id]);
      if (entry == nullptr) continue;
      telemetry::trace_instant(telemetry::TraceCat::kCache, "memo_serve", id,
                               entry->profile.net_stored);
      ++hits;
      art.nodes[id] = entry->result;
      NodeProfile& prof = profiles[id];
      prof.stats = entry->profile.counters;
      prof.net_stored = entry->profile.net_stored;
      prof.peak_stored = entry->profile.peak_stored;
      prof.peak_transient = entry->profile.peak_transient;
      prof.peak_total = entry->profile.peak_total;
      prof.subtree_net = entry->profile.subtree_net;
      prof.done = true;
      served_[id] = 1;
    }
    span.set_arg(hits);
  }

  /// Publish the freshly computed nodes of a successful run. Each entry
  /// gets its own copy of the node: the evaluator's lists grew by
  /// push_back and may carry spare capacity the byte budget does not
  /// charge, while a copy holds exactly its elements.
  void publish(const FlatTree& flat, const OptimizeArtifacts& art,
               const std::vector<NodeProfile>& profiles) {
    telemetry::TraceSpan span(telemetry::TraceCat::kCache, "publish_pass");
    std::uint64_t published = 0;
    for (const std::size_t id : flat.postorder) {
      if (flat.nodes[id]->is_leaf() || served_[id] != 0) continue;
      telemetry::trace_instant(telemetry::TraceCat::kCache, "memo_publish", id);
      ++published;
      const NodeProfile& prof = profiles[id];
      cache_.insert(keys_[id], std::make_shared<NodeResult>(*art.nodes[id]),
                    NodeProfileRecord{prof.stats, prof.net_stored, prof.peak_stored,
                                      prof.peak_transient, prof.peak_total,
                                      prof.subtree_net});
    }
    span.set_arg(published);
  }

 private:
  CacheView& cache_;
  std::vector<CacheKey> keys_;
  std::vector<char> served_;
};


/// The optimizer engine. Every node goes through evaluate(), which runs it
/// against a node-local tracker that starts with `live_before`
/// implementations already held and records its profile; one fold over
/// the profiles then yields the stats, on success and after an abort.
/// `threads == 0` runs without a pool as a plain postorder loop; a pool
/// runs the dependency-counting schedule (run_pool). In incremental mode
/// the cache serves clean nodes before either schedule starts, and the
/// fresh nodes are published after a completed run.
class Engine {
 public:
  Engine(const FloorplanTree& tree, const OptimizerOptions& opts, OptimizeArtifacts& art,
         ThreadPool* pool, CacheBinding* binding)
      : tree_(tree),
        opts_(opts),
        art_(art),
        pool_(pool),
        binding_(binding),
        flat_(art.btree),
        profiles_(art.btree.node_count) {}

  /// Fills `stats`, also for an aborted run, and throws
  /// MemoryLimitExceeded when the run exceeds the budget.
  void run(OptimizerStats& stats) {
    if (binding_ != nullptr) binding_->serve(flat_, art_, profiles_);
    const bool completed = pool_ == nullptr ? run_postorder() : run_pool();
    stats = fold_profiles(flat_, profiles_);
    if (!completed || exceeds(stats.peak_live)) {
      throw MemoryLimitExceeded{stats.final_stored, 0};
    }
    if (binding_ != nullptr) binding_->publish(flat_, art_, profiles_);
  }

 private:
  [[nodiscard]] bool exceeds(std::size_t live) const {
    return opts_.impl_budget != 0 && live > opts_.impl_budget;
  }

  /// Evaluate node `id` with `live_before` implementations already held
  /// and record its profile, also when the budget trips mid-node (the
  /// profile then holds what the node reached). False on such a trip.
  bool evaluate(std::size_t id, std::size_t live_before) {
    const BinaryNode& node = *flat_.nodes[id];
    NodeProfile& prof = profiles_[id];
    if (prof.done) prof = NodeProfile{};  // a served node evaluated again
    BudgetTracker local(opts_.impl_budget, live_before);
    NodeEvaluator evaluator(tree_, opts_, art_, local, prof.stats);
    try {
      evaluator.eval_node(node);
    } catch (const MemoryLimitExceeded&) {
      prof.tripped = true;
    }
    prof.net_stored = local.stored();
    prof.peak_stored = local.peak_stored();
    prof.peak_transient = local.peak_transient();
    prof.peak_total = local.peak_total();
    prof.subtree_net = prof.net_stored + children_subtree_net(node, profiles_);
    prof.done = true;
    return !prof.tripped;
  }

  /// Every node starts from the exact serial prefix, so a run trips where
  /// [9]'s single counter does. A served node whose recorded peak would
  /// exceed the budget from here is evaluated again, so that it trips at
  /// the scratch run's point and leaves the scratch run's stats.
  bool run_postorder() {
    std::size_t live = 0;
    for (const std::size_t id : flat_.postorder) {
      const NodeProfile& prof = profiles_[id];
      if ((!prof.done || exceeds(live + prof.peak_total)) && !evaluate(id, live)) return false;
      live += prof.net_stored;
    }
    return true;
  }

  /// Every unserved node is a task that fires once both children are done
  /// and starts from their subtree nets: a lower bound on the serial prefix
  /// under any interleaving, so a task trips only where the serial run
  /// trips at or before the same node. The fold decides the outcome; a
  /// tripped task and `committed_` (nets never shrink, so once finished
  /// nets alone exceed the budget the serial run does too) only stop
  /// doomed runs early. Neither fires on a run the serial loop completes.
  bool run_pool() {
    const std::size_t n = flat_.nodes.size();
    pending_ = std::vector<std::atomic<int>>(n);
    std::size_t served_net = 0;
    for (std::size_t id = 0; id < n; ++id) {
      if (profiles_[id].done) {
        served_net += profiles_[id].net_stored;
        continue;
      }
      const BinaryNode& node = *flat_.nodes[id];
      int waits = 0;
      if (node.left && !profiles_[node.left->id].done) ++waits;
      if (node.right && !profiles_[node.right->id].done) ++waits;
      // relaxed: not shared yet; TaskGroup's submission edges publish
      // this state before any worker reads it.
      pending_[id].store(waits, std::memory_order_relaxed);
    }
    // relaxed (both): not shared yet either.
    committed_.store(served_net, std::memory_order_relaxed);
    aborted_.store(exceeds(served_net), std::memory_order_relaxed);

    TaskGroup group(pool_);
    group_ = &group;
    for (std::size_t id = 0; id < n; ++id) {
      // relaxed: reading this thread's own stores above.
      if (!profiles_[id].done && pending_[id].load(std::memory_order_relaxed) == 0) {
        group.run([this, id] { exec(id); });
      }
    }
    group.wait();  // rethrows unexpected task exceptions
    group_ = nullptr;
    // acquire: pairs with exec()'s release store; group.wait() already
    // synchronized, but the pairing keeps this read self-documenting.
    return !aborted_.load(std::memory_order_acquire);
  }

  void exec(std::size_t id) {
    // acquire: pairs with the release store below, so a task that skips
    // its node also observes the state the aborting task published.
    if (!aborted_.load(std::memory_order_acquire)) {
      const bool fits = evaluate(id, children_subtree_net(*flat_.nodes[id], profiles_));
      const std::size_t net = profiles_[id].net_stored;
      // acq_rel: the running total must observe every earlier add and
      // publish this node's profile with its contribution.
      const std::size_t committed = committed_.fetch_add(net, std::memory_order_acq_rel) + net;
      if (!fits || exceeds(committed)) {
        aborted_.store(true, std::memory_order_release);  // publishes the profile that tripped
      }
    }
    // Cascade even when aborted so every queued dependency drains and
    // TaskGroup::wait returns promptly.
    const std::size_t parent = flat_.parent[id];
    if (parent != kNoParent &&
        pending_[parent].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group_->run([this, parent] { exec(parent); });
    }
  }

  const FloorplanTree& tree_;
  const OptimizerOptions& opts_;
  OptimizeArtifacts& art_;
  ThreadPool* pool_;                   ///< null: the postorder loop
  CacheBinding* binding_;              ///< null: a scratch run
  FlatTree flat_;
  std::vector<NodeProfile> profiles_;  ///< by node id

  // The pool schedule's state; the postorder loop touches none of it.
  TaskGroup* group_ = nullptr;
  std::vector<std::atomic<int>> pending_;  ///< unfinished children left, by node id
  std::atomic<std::size_t> committed_{0};  ///< nets of finished nodes
  std::atomic<bool> aborted_{false};
};

}  // namespace

OptimizeOutcome optimize_floorplan(const FloorplanTree& tree, const OptimizerOptions& opts) {
  assert(tree.validate().empty() && "optimize_floorplan requires a well-formed tree");
  assert(opts.threads <= OptimizerOptions::kMaxThreads && "input surfaces reject larger values");
  const auto start = std::chrono::steady_clock::now();  // FPOPT-LINT-OK(wall-clock): stats.seconds is reported wall time, excluded from determinism comparisons
  telemetry::PhaseProfile phases;

  auto artifacts = std::make_shared<OptimizeArtifacts>();
  {
    const auto scope = phases.scope("restructure");
    const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "restructure");
    artifacts->btree = restructure(tree, opts.restructure);
    artifacts->nodes.resize(artifacts->btree.node_count);
  }
  assert(!artifacts->btree.root->is_l_block() && "T' roots are rectangular blocks");

  OptimizeOutcome outcome;
  {
    const auto scope = phases.scope("evaluate");
    const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "evaluate");
    // A run-owned pool joins its workers at the end of this block, inside
    // the evaluate phase (its counters are kept for the report); an
    // externally shared pool (opts.pool, the daemon's) outlives the run
    // and keeps its own process-lifetime counters.
    std::optional<ThreadPool> owned;
    try {
      ThreadPool* pool = nullptr;
      if (opts.threads != 0) {
        pool = opts.pool != nullptr ? opts.pool
                                    : &owned.emplace(static_cast<unsigned>(opts.threads));
      }
      std::optional<CacheBinding> binding;
      if (opts.incremental && opts.cache != nullptr) {
        binding.emplace(*opts.cache, tree, opts, *artifacts);
      }
      Engine(tree, opts, *artifacts, pool, binding ? &*binding : nullptr).run(outcome.stats);
      const NodeResult& root = *artifacts->nodes[artifacts->btree.root->id];
      outcome.root = root.rlist;
      outcome.best_area = root.rlist[root.rlist.min_area_index()].area();
      outcome.artifacts = std::move(artifacts);
    } catch (const MemoryLimitExceeded&) {
      outcome.out_of_memory = true;
    }
    if (owned) outcome.pool_stats = owned->stats();
  }

  outcome.phases = phases.samples();
  outcome.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();  // FPOPT-LINT-OK(wall-clock): reported wall time, excluded from determinism comparisons
  return outcome;
}

}  // namespace fpopt
