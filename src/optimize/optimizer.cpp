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
/// NodeResults. Shared between the serial engine and every parallel task:
/// the two engines differ only in scheduling and in which BudgetTracker
/// they hand in (the serial engine threads one global tracker through the
/// whole run; the profiled engines give every node its own).
class NodeEvaluator {
 public:
  NodeEvaluator(const FloorplanTree& tree, const OptimizerOptions& opts, OptimizeArtifacts& art,
                BudgetTracker& budget, OptimizerStats& stats, ThreadPool* pool)
      : tree_(tree), opts_(opts), art_(art), budget_(budget), stats_(stats), pool_(pool) {}

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
      const SelectionResult picked = r_selection(combined.list, sel.k1, sel.dp, pool_);
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
      budget_.sub_stored(combined.set.canonicalize());
    }
    stats_.max_llist_len = std::max(stats_.max_llist_len, combined.set.total_size());
    const SelectionConfig& sel = opts_.selection;
    if (sel.k2 != 0) {
      const LSelectionOptions lopts{sel.metric, sel.dp, sel.heuristic_cap,
                                    LHeuristic::UniformSubsample};
      const LReductionReport report =
          reduce_l_set(combined.set, sel.k2, sel.theta, lopts, pool_);
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
  ThreadPool* pool_;
};

/// Fold `from`'s additive counters (and the order-independent max-folds)
/// into `into`. The peak fields are *not* additive and are handled by the
/// schedule-profile reconstruction.
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

/// The serial engine: plain postorder recursion with one global tracker,
/// byte-for-byte the behaviour this project has always had.
class Engine {
 public:
  Engine(const FloorplanTree& tree, const OptimizerOptions& opts, OptimizeArtifacts& art,
         OptimizerStats& stats)
      : art_(art),
        stats_(stats),
        budget_(opts.impl_budget),
        evaluator_(tree, opts, art, budget_, stats, nullptr) {}

  void run() {
    eval(*art_.btree.root);
    snapshot_peaks();
  }

  /// Copies the tracker peaks out even when the run aborted mid-way.
  void snapshot_peaks() {
    stats_.final_stored = budget_.stored();
    stats_.peak_stored = budget_.peak_stored();
    stats_.peak_transient = budget_.peak_transient();
    stats_.peak_live = budget_.peak_total();
  }

 private:
  void eval(const BinaryNode& node) {
    if (node.left) eval(*node.left);
    if (node.right) eval(*node.right);
    evaluator_.eval_node(node);
  }

  OptimizeArtifacts& art_;
  OptimizerStats& stats_;
  BudgetTracker budget_;
  NodeEvaluator evaluator_;
};

constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

// ---- shared plumbing of the profiled engines ---------------------------
//
// Both the parallel engine and the incremental engines evaluate each node
// against a task-local BudgetTracker and record the node's memory profile
// (net stored delta, intra-node peaks) plus its additive stats counters.
// Because a node's combine/selection work is a pure function of its
// children, those profiles are schedule-independent, and after all nodes
// are accounted for the engine replays the *serial* postorder memory
// profile from them. The budget-abort decision and the reported peaks
// come from that replay, so they are identical to the serial scratch
// engine's — whether a node's profile was recorded fresh or served from
// the memo cache (a cached subtree is structurally identical to the one
// that produced the record, so its profile is identical too).

struct NodeProfile {
  OptimizerStats stats;            ///< this node's counters only
  std::size_t net_stored = 0;      ///< stored delta the node leaves behind
  std::size_t peak_stored = 0;     ///< intra-node peak, relative to entry
  std::size_t peak_transient = 0;  ///< intra-node transient peak
  std::size_t peak_total = 0;      ///< intra-node stored+transient peak
  std::size_t subtree_net = 0;     ///< net_stored summed over the subtree
  bool done = false;
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

/// Replay the serial postorder schedule's memory profile from the
/// per-node records: stored at node entry is the prefix sum of earlier
/// nets, transient is zero between nodes (TransientScope is node-local).
/// Throws when the serial schedule would have exceeded the budget.
void replay_serial_profile(const FlatTree& flat, const std::vector<NodeProfile>& profiles,
                           OptimizerStats& stats, std::size_t impl_budget) {
  std::size_t prefix = 0;
  std::size_t peak_stored = 0, peak_transient = 0, peak_total = 0;
  for (const std::size_t id : flat.postorder) {
    const NodeProfile& prof = profiles[id];
    assert(prof.done);
    peak_stored = std::max(peak_stored, prefix + prof.peak_stored);
    peak_transient = std::max(peak_transient, prof.peak_transient);
    peak_total = std::max(peak_total, prefix + prof.peak_total);
    prefix += prof.net_stored;
    accumulate_counters(stats, prof.stats);
  }
  stats.peak_stored = peak_stored;
  stats.peak_transient = peak_transient;
  stats.peak_live = peak_total;
  stats.final_stored = prefix;
  if (impl_budget != 0 && peak_total > impl_budget) {
    // The serial schedule would have thrown mid-run (a transient spike
    // no early check can see); report the same outcome.
    throw MemoryLimitExceeded{prefix, 0};
  }
}

/// Best-effort stats for an aborted run: counters and peaks over the
/// nodes that did complete, merged in postorder. (The serial engine's
/// abort-time snapshot is schedule-position-dependent in the same way.)
void snapshot_partial(const FlatTree& flat, const std::vector<NodeProfile>& profiles,
                      OptimizerStats& stats) {
  std::size_t prefix = 0;
  for (const std::size_t id : flat.postorder) {
    const NodeProfile& prof = profiles[id];
    if (!prof.done) continue;
    stats.peak_stored = std::max(stats.peak_stored, prefix + prof.peak_stored);
    stats.peak_transient = std::max(stats.peak_transient, prof.peak_transient);
    stats.peak_live = std::max(stats.peak_live, prefix + prof.peak_total);
    prefix += prof.net_stored;
    accumulate_counters(stats, prof.stats);
  }
  stats.final_stored = prefix;
}

/// The memo-cache pre- and post-pass shared by the incremental engines.
/// Both passes run on the coordinating thread only, in postorder, so LRU
/// touches, insertions and evictions are identical for every thread count.
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

  [[nodiscard]] bool served(std::size_t id) const { return served_[id] != 0; }

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

/// The serial incremental engine: one postorder sweep with per-node
/// profiles, cache hits served up front, and the same sound early-abort
/// checks + serial replay the parallel engine uses (the equivalence
/// argument on ParallelEngine applies verbatim with "task" read as
/// "postorder step"):
///  * committed counter: net stored deltas are non-negative, so as soon
///    as the accounted nodes' nets alone exceed the budget, the scratch
///    run's final stored count exceeds it too — abort.
///  * per-node local cap: when node v runs, the scratch schedule would
///    hold at least the net stored of v's children's subtrees.
class IncrementalSerialEngine {
 public:
  IncrementalSerialEngine(const FloorplanTree& tree, const OptimizerOptions& opts,
                          OptimizeArtifacts& art, OptimizerStats& stats, CacheBinding& binding)
      : tree_(tree),
        opts_(opts),
        art_(art),
        stats_(stats),
        binding_(binding),
        flat_(art.btree),
        profiles_(art.btree.node_count) {}

  void run() {
    binding_.serve(flat_, art_, profiles_);
    std::size_t committed = 0;
    for (const std::size_t id : flat_.postorder) {
      NodeProfile& prof = profiles_[id];
      if (!prof.done) {
        const BinaryNode& node = *flat_.nodes[id];
        const std::size_t desc_net = children_subtree_net(node, profiles_);
        std::size_t local_budget = 0;  // 0 = unlimited
        if (opts_.impl_budget != 0) {
          local_budget = opts_.impl_budget > desc_net ? opts_.impl_budget - desc_net : 1;
        }
        BudgetTracker local(local_budget);
        NodeEvaluator evaluator(tree_, opts_, art_, local, prof.stats, nullptr);
        try {
          evaluator.eval_node(node);
        } catch (const MemoryLimitExceeded&) {
          snapshot_partial(flat_, profiles_, stats_);
          throw;
        }
        prof.net_stored = local.stored();
        prof.peak_stored = local.peak_stored();
        prof.peak_transient = local.peak_transient();
        prof.peak_total = local.peak_total();
        prof.subtree_net = prof.net_stored + desc_net;
        prof.done = true;
      }
      committed += prof.net_stored;
      if (opts_.impl_budget != 0 && committed > opts_.impl_budget) {
        snapshot_partial(flat_, profiles_, stats_);
        throw MemoryLimitExceeded{committed, 0};
      }
    }
    replay_serial_profile(flat_, profiles_, stats_, opts_.impl_budget);
    binding_.publish(flat_, art_, profiles_);
  }

 private:
  const FloorplanTree& tree_;
  const OptimizerOptions& opts_;
  OptimizeArtifacts& art_;
  OptimizerStats& stats_;
  CacheBinding& binding_;
  FlatTree flat_;
  std::vector<NodeProfile> profiles_;
};

/// The parallel engine: a dependency-counting bottom-up schedule over T'.
/// Every node is a task that fires when both children are done; each task
/// evaluates its node with a task-local BudgetTracker and records the
/// node's memory profile. After the DAG drains the engine replays the
/// *serial* postorder memory profile (see the shared-plumbing comment
/// above), so the budget-abort decision and the reported peaks are
/// identical to the serial engine's for every thread count.
///
/// Two sound early-abort checks avoid computing doomed runs to the end:
///  * committed counter: net stored deltas are non-negative, so as soon as
///    the completed nodes' nets alone exceed the budget, the serial run's
///    final stored count exceeds it too — abort.
///  * per-task local cap: when node v runs, the serial schedule would hold
///    at least the net stored of v's whole subtree; a task-local budget of
///    (budget - subtree nets of children) therefore only trips when the
///    serial run would trip at or before the same point in v.
/// Neither check can fire on a run the serial engine completes, and any
/// abort the checks miss is caught by the exact replay, so the outcome is
/// deterministic either way.
///
/// In incremental mode the cache pre-pass serves clean subtrees before
/// the fan-out: served nodes are born `done`, never become tasks, and do
/// not appear in any dependency count — only the dirty nodes hit the
/// pool. Publishing back to the cache happens serially after the drain.
class ParallelEngine {
 public:
  ParallelEngine(const FloorplanTree& tree, const OptimizerOptions& opts,
                 OptimizeArtifacts& art, OptimizerStats& stats, ThreadPool& pool,
                 CacheBinding* binding)
      : tree_(tree),
        opts_(opts),
        art_(art),
        stats_(stats),
        pool_(pool),
        binding_(binding),
        flat_(art.btree) {
    const std::size_t n = art_.btree.node_count;
    pending_ = std::vector<std::atomic<int>>(n);
    profiles_ = std::vector<NodeProfile>(n);
    if (binding_ != nullptr) binding_->serve(flat_, art_, profiles_);
    std::size_t served_net = 0;
    for (std::size_t id = 0; id < n; ++id) {
      if (profiles_[id].done) {
        served_net += profiles_[id].net_stored;
        // relaxed: single-threaded constructor; the pool starts later.
        pending_[id].store(0, std::memory_order_relaxed);
        continue;
      }
      const BinaryNode& node = *flat_.nodes[id];
      int waits = 0;
      if (node.left && !profiles_[node.left->id].done) ++waits;
      if (node.right && !profiles_[node.right->id].done) ++waits;
      // relaxed (all three): single-threaded constructor; TaskGroup's
      // submission edges publish this state before any worker reads it.
      pending_[id].store(waits, std::memory_order_relaxed);
    }
    committed_.store(served_net, std::memory_order_relaxed);
    if (opts_.impl_budget != 0 && served_net > opts_.impl_budget) {
      aborted_.store(true, std::memory_order_relaxed);  // relaxed: still single-threaded
    }
  }

  /// Throws MemoryLimitExceeded when the (deterministic) budget decision
  /// is "abort"; fills stats_ otherwise.
  void run() {
    TaskGroup group(&pool_);
    group_ = &group;
    for (std::size_t id = 0; id < flat_.nodes.size(); ++id) {
      // relaxed: reading our own constructor's writes on this thread.
      if (!profiles_[id].done && pending_[id].load(std::memory_order_relaxed) == 0) {
        group.run([this, id] { exec(id); });
      }
    }
    group.wait();  // rethrows unexpected task exceptions
    group_ = nullptr;

    // acquire (both): group.wait() already synchronized, but the pairing
    // with exec()'s release stores keeps this read self-documenting.
    if (aborted_.load(std::memory_order_acquire)) {
      snapshot_partial(flat_, profiles_, stats_);
      throw MemoryLimitExceeded{committed_.load(std::memory_order_acquire), 0};
    }
    replay_serial_profile(flat_, profiles_, stats_, opts_.impl_budget);
    if (binding_ != nullptr) binding_->publish(flat_, art_, profiles_);
  }

 private:
  void exec(std::size_t id) {
    const BinaryNode& node = *flat_.nodes[id];
    // acquire: pairs with the release stores below so a task that skips
    // work also observes the state the aborting task published.
    if (!aborted_.load(std::memory_order_acquire)) {
      const std::size_t desc_net = children_subtree_net(node, profiles_);
      std::size_t local_budget = 0;  // 0 = unlimited
      if (opts_.impl_budget != 0) {
        // Sound early cap (see class comment); when the children already
        // fill the budget, any add of >= 1 implementation must abort.
        local_budget = opts_.impl_budget > desc_net ? opts_.impl_budget - desc_net : 1;
      }
      BudgetTracker local(local_budget);
      NodeProfile& prof = profiles_[id];
      NodeEvaluator evaluator(tree_, opts_, art_, local, prof.stats, &pool_);
      try {
        evaluator.eval_node(node);
        prof.net_stored = local.stored();
        prof.peak_stored = local.peak_stored();
        prof.peak_transient = local.peak_transient();
        prof.peak_total = local.peak_total();
        prof.subtree_net = prof.net_stored + desc_net;
        prof.done = true;
        // acq_rel: the running total must observe every earlier add and
        // publish this node's profile writes with its contribution.
        const std::size_t committed =
            committed_.fetch_add(prof.net_stored, std::memory_order_acq_rel) +
            prof.net_stored;
        if (opts_.impl_budget != 0 && committed > opts_.impl_budget) {
          // release: publishes the profile state that justified aborting.
          aborted_.store(true, std::memory_order_release);
        }
      } catch (const MemoryLimitExceeded&) {
        // release: publishes the partial profile of the aborting node.
        aborted_.store(true, std::memory_order_release);
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
  OptimizerStats& stats_;
  ThreadPool& pool_;
  CacheBinding* binding_;
  TaskGroup* group_ = nullptr;

  FlatTree flat_;
  std::vector<std::atomic<int>> pending_;  ///< unserved children left, by node id
  std::vector<NodeProfile> profiles_;      ///< by node id

  std::atomic<std::size_t> committed_{0};  ///< nets of completed nodes
  std::atomic<bool> aborted_{false};
};

}  // namespace

OptimizeOutcome optimize_floorplan(const FloorplanTree& tree, const OptimizerOptions& opts) {
  assert(tree.validate().empty() && "optimize_floorplan requires a well-formed tree");
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

  const bool incremental = opts.incremental && opts.cache != nullptr;
  OptimizeOutcome outcome;
  try {
    const auto scope = phases.scope("evaluate");
    const telemetry::TraceSpan span(telemetry::TraceCat::kPhase, "evaluate");
    std::optional<CacheBinding> binding;
    if (incremental) binding.emplace(*opts.cache, tree, opts, *artifacts);
    if (opts.threads == 0) {
      if (incremental) {
        IncrementalSerialEngine engine(tree, opts, *artifacts, outcome.stats, *binding);
        engine.run();
      } else {
        Engine engine(tree, opts, *artifacts, outcome.stats);
        try {
          engine.run();
        } catch (const MemoryLimitExceeded&) {
          engine.snapshot_peaks();
          throw;
        }
      }
    } else {
      // A run-owned pool dies with this scope (its counters are kept for
      // the report); an externally shared pool (opts.pool, the daemon's)
      // outlives the run and keeps its own process-lifetime counters.
      std::optional<ThreadPool> owned;
      ThreadPool* pool = opts.pool;
      if (pool == nullptr) {
        owned.emplace(static_cast<unsigned>(opts.threads));
        pool = &*owned;
      }
      ParallelEngine engine(tree, opts, *artifacts, outcome.stats, *pool,
                            binding ? &*binding : nullptr);
      try {
        engine.run();
      } catch (const MemoryLimitExceeded&) {
        if (owned) outcome.pool_stats = owned->stats();
        throw;
      }
      if (owned) outcome.pool_stats = owned->stats();
    }
    const NodeResult& root = *artifacts->nodes[artifacts->btree.root->id];
    outcome.root = root.rlist;
    outcome.best_area = root.rlist[root.rlist.min_area_index()].area();
    outcome.artifacts = std::move(artifacts);
  } catch (const MemoryLimitExceeded&) {
    outcome.out_of_memory = true;
  }

  outcome.phases = phases.samples();
  outcome.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();  // FPOPT-LINT-OK(wall-clock): reported wall time, excluded from determinism comparisons
  return outcome;
}

}  // namespace fpopt
