// Content-addressed cache keys for per-node optimization results.
//
// A T' node's NodeResult is a pure function of (a) the shapes of the
// modules under its subtree, (b) the subtree's structure — which combine
// ops in which order — and (c) the selection/pruning knobs of the run.
// The key is a 128-bit structural hash over exactly those inputs,
// computed bottom up: a leaf hashes its module's implementation-list
// digest (by *content*, so identically-shaped modules share cache
// entries), an internal node hashes (op tag, left key, right key), and the
// knob fingerprint is folded into every node. The digest is computed once,
// when the module's list is set (ModuleImpls, floorplan/module.h), so
// deriving a run's keys costs O(nodes) hash steps, not O(implementations).
// Everything the result does NOT depend on — the memory budget, thread
// count, wheel chirality (shape curves are mirror-invariant), module
// names/ids — is deliberately left out, so runs that differ only in those
// still share entries.
//
// 128 bits makes an accidental collision astronomically unlikely
// (~2^-64 birthday odds at a billion distinct subtrees); the
// audit_incremental checker (check/audit.h) independently proves that
// served artifacts byte-equal scratch recomputes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/hasher.h"
#include "optimize/optimizer.h"  // FPOPT-LINT-OK(layering): key derivation fingerprints OptimizerOptions; cache stays link-level below optimize (see cache/CMakeLists.txt)

namespace fpopt {

using CacheKey = Hash128;

struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL));
  }
};

/// Fingerprint of every OptimizerOptions knob that can change a
/// NodeResult: the selection config (k1, k2, theta, S, metric, DP choice)
/// and the L pruning mode. impl_budget and threads are excluded — they
/// never change a completed node's bytes.
[[nodiscard]] CacheKey config_fingerprint(const OptimizerOptions& opts);

/// Per-node subtree keys for the whole T', indexed by BinaryNode::id.
/// Leaf keys hash the module's implementation-list digest; internal keys
/// hash (op, left key, right key). O(nodes) hash steps per call.
[[nodiscard]] std::vector<CacheKey> derive_node_keys(const BinaryTree& btree,
                                                     const FloorplanTree& tree,
                                                     const OptimizerOptions& opts);

}  // namespace fpopt
