#include "check/audit.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "check/check_certificate.h"
#include "check/check_placement.h"
#include "check/check_shapes.h"
#include "check/check_tree.h"
#include "core/l_selection.h"
#include "core/r_selection.h"
#include "optimize/artifact_dump.h"
#include "optimize/placement.h"

namespace fpopt {
namespace {

std::string node_where(const BinaryNode& node) {
  return "T' node " + std::to_string(node.id);
}

/// Check one node's stored lists and provenance; recurses over T'.
void audit_node(const BinaryNode& node, const OptimizeArtifacts& art, bool cross_list,
                CheckResult& checks, std::size_t& nodes_checked) {
  if (node.left) audit_node(*node.left, art, cross_list, checks, nodes_checked);
  if (node.right) audit_node(*node.right, art, cross_list, checks, nodes_checked);
  if (node.id >= art.nodes.size()) return;  // already reported by check_tree
  const NodeResult& res = *art.nodes[node.id];
  const std::string where = node_where(node);
  ++nodes_checked;

  if (res.is_l != node.is_l_block()) {
    checks.add("audit/node-kind", where,
               std::string("stored result is ") + (res.is_l ? "an L set" : "an R-list") +
                   " but the op produces the other kind");
    return;
  }

  if (res.is_l) {
    checks.merge(check_l_list_set(res.lset, cross_list, where));
    for (const LList& list : res.lset.lists()) {
      for (const LEntry& e : list) {
        if (e.id >= res.lprov.size()) {
          if (!checks.room_for_more()) return;
          checks.add("audit/provenance", where,
                     "L entry id " + std::to_string(e.id) + " has no provenance record (" +
                         std::to_string(res.lprov.size()) + " stored)");
        }
      }
    }
  } else {
    checks.merge(check_r_list(res.rlist, where));
    if (res.rprov.size() != res.rlist.size()) {
      checks.add("audit/provenance", where,
                 "provenance array has " + std::to_string(res.rprov.size()) +
                     " entries for " + std::to_string(res.rlist.size()) + " implementations");
    }
  }
}

/// Evenly spread m sample positions over 0..n-1 (endpoints included).
std::vector<std::size_t> spread_indices(std::size_t n, std::size_t m) {
  std::vector<std::size_t> idx;
  if (n == 0 || m == 0) return idx;
  if (m >= n) {
    idx.resize(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    return idx;
  }
  idx.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t pos = m == 1 ? 0 : i * (n - 1) / (m - 1);
    if (idx.empty() || idx.back() != pos) idx.push_back(pos);
  }
  return idx;
}

}  // namespace

AuditReport audit_optimize(const FloorplanTree& tree, const AuditOptions& opts) {
  AuditReport report;

  for (const std::string& problem : tree.validate()) {
    if (!report.checks.room_for_more()) break;
    report.checks.add("audit/topology", "input tree", problem);
  }
  if (!report.checks.ok()) return report;  // optimize_floorplan requires a well-formed tree

  const OptimizeOutcome outcome = optimize_floorplan(tree, opts.optimizer);
  report.stats = outcome.stats;
  if (outcome.out_of_memory) {
    report.out_of_memory = true;
    return report;
  }

  const OptimizeArtifacts& art = *outcome.artifacts;
  report.checks.merge(check_tree(art.btree, tree));

  const bool cross_list = opts.optimizer.l_pruning != LPruning::PerChain;
  audit_node(*art.btree.root, art, cross_list, report.checks, report.nodes_checked);

  // The published result: root list irreducible, best area re-derivable.
  report.root_impls = outcome.root.size();
  report.best_area = outcome.best_area;
  report.checks.merge(check_r_list(outcome.root, "root"));
  if (outcome.root.empty()) {
    report.checks.add("audit/best-area", "root", "successful run produced no implementations");
  } else {
    Area best = outcome.root[0].area();
    for (const RectImpl& r : outcome.root) best = std::min(best, r.area());
    if (best != outcome.best_area) {
      report.checks.add("audit/best-area", "root",
                        "claimed best area " + std::to_string(outcome.best_area) +
                            " differs from the root-list minimum " + std::to_string(best));
    }
  }

  // Fresh selection runs on the largest lists, certificates re-derived.
  if (opts.certificate_samples > 0) {
    std::vector<std::pair<std::size_t, const RList*>> rlists;
    std::vector<std::pair<std::size_t, const LList*>> llists;
    for (const auto& node : art.nodes) {
      const NodeResult& res = *node;
      if (res.is_l) {
        for (const LList& list : res.lset.lists()) {
          if (list.size() >= 3) llists.emplace_back(list.size(), &list);
        }
      } else if (res.rlist.size() >= 3) {
        rlists.emplace_back(res.rlist.size(), &res.rlist);
      }
    }
    const auto by_size_desc = [](const auto& a, const auto& b) { return a.first > b.first; };
    std::sort(rlists.begin(), rlists.end(), by_size_desc);
    std::sort(llists.begin(), llists.end(), by_size_desc);
    rlists.resize(std::min(rlists.size(), opts.certificate_samples));
    llists.resize(std::min(llists.size(), opts.certificate_samples));

    const SelectionConfig& sel = opts.optimizer.selection;
    for (const auto& [size, list] : rlists) {
      const std::size_t k = std::max<std::size_t>(2, size / 2);
      const SelectionResult picked = r_selection(*list, k, sel.dp);
      report.checks.merge(check_selection_certificate(*list, picked, k,
                                                      "certificate n=" + std::to_string(size)));
      ++report.certificates_checked;
    }
    const LSelectionOptions lopts{sel.metric, sel.dp, 0, LHeuristic::UniformSubsample};
    for (const auto& [size, list] : llists) {
      const std::size_t k = std::max<std::size_t>(2, size / 2);
      const SelectionResult picked = l_selection(*list, k, lopts);
      report.checks.merge(check_l_selection_certificate(
          *list, picked, k, sel.metric, "l-certificate n=" + std::to_string(size)));
      ++report.certificates_checked;
    }
  }

  // Trace a spread of root implementations down to concrete placements.
  for (const std::size_t idx : spread_indices(outcome.root.size(), opts.max_traced_placements)) {
    const Placement placement = trace_placement(tree, outcome, idx);
    const std::string where = "placement of root[" + std::to_string(idx) + "]";
    report.checks.merge(check_placement(placement, tree, where));
    const RectImpl& impl = outcome.root[idx];
    if (placement.width != impl.w || placement.height != impl.h) {
      report.checks.add("audit/root-impl", where,
                        "traced chip is " + std::to_string(placement.width) + " x " +
                            std::to_string(placement.height) + " but the root implementation is " +
                            std::to_string(impl.w) + " x " + std::to_string(impl.h));
    }
    ++report.placements_checked;
  }

  return report;
}

IncrementalAuditReport audit_incremental(const FloorplanTree& tree, const AuditOptions& opts) {
  IncrementalAuditReport report;

  for (const std::string& problem : tree.validate()) {
    if (!report.checks.room_for_more()) break;
    report.checks.add("audit/topology", "input tree", problem);
  }
  if (!report.checks.ok()) return report;

  OptimizerOptions scratch_opts = opts.optimizer;
  scratch_opts.incremental = false;
  scratch_opts.cache = nullptr;
  const OptimizeOutcome scratch = optimize_floorplan(tree, scratch_opts);
  const std::string scratch_dump = dump_outcome(tree, scratch);
  report.out_of_memory = scratch.out_of_memory;

  MemoCache cache;
  OptimizerOptions inc_opts = opts.optimizer;
  inc_opts.incremental = true;
  inc_opts.cache = &cache;

  // Cold run: every internal node misses, gets computed and (on success)
  // published. Warm run: every internal node must be served from cache.
  for (const bool warm : {false, true}) {
    const std::string where = warm ? "warm incremental run" : "cold incremental run";
    cache.reset_stats();
    const OptimizeOutcome outcome = optimize_floorplan(tree, inc_opts);
    const MemoCacheStats stats = cache.stats();
    (warm ? report.warm_stats : report.cold_stats) = stats;

    if (dump_outcome(tree, outcome) != scratch_dump) {
      report.checks.add("audit/incremental", where,
                        "canonical artifact dump differs from the scratch run");
    }
    if (warm && !scratch.out_of_memory && stats.hits != stats.probes()) {
      report.checks.add("audit/incremental", where,
                        "expected every internal node to be served from cache, got " +
                            std::to_string(stats.hits) + " hits over " +
                            std::to_string(stats.probes()) + " probes");
    }
    if (!warm && stats.hits != 0) {
      report.checks.add("audit/incremental", where,
                        "fresh cache reported " + std::to_string(stats.hits) + " hits");
    }
  }

  return report;
}

}  // namespace fpopt
