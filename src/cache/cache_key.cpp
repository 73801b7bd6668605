#include "cache/cache_key.h"

#include <bit>
#include <cassert>

namespace fpopt {
namespace {

// Domain-separation tags (arbitrary odd constants).
constexpr std::uint64_t kConfigTag = 0xC0F1C0F1C0F1C0F1ULL;
constexpr std::uint64_t kLeafTag = 0x1EAF1EAF1EAF1EAFULL;
constexpr std::uint64_t kInternalTag = 0x0DDC0DDC0DDC0DDCULL;

[[nodiscard]] CacheKey module_content_key(const Module& module, const CacheKey& cfg) {
  Hasher h(kLeafTag);
  h.absorb(cfg);
  h.absorb(module.impls.digest());
  return h.finish();
}

void derive(const BinaryNode& node, const FloorplanTree& tree, const CacheKey& cfg,
            std::vector<CacheKey>& out) {
  if (node.is_leaf()) {
    out[node.id] = module_content_key(tree.module(node.module_id), cfg);
    return;
  }
  derive(*node.left, tree, cfg, out);
  derive(*node.right, tree, cfg, out);
  Hasher h(kInternalTag);
  h.absorb(cfg);
  h.absorb(static_cast<std::uint64_t>(node.op));
  h.absorb(out[node.left->id]);
  h.absorb(out[node.right->id]);
  out[node.id] = h.finish();
}

}  // namespace

CacheKey config_fingerprint(const OptimizerOptions& opts) {
  const SelectionConfig& sel = opts.selection;
  Hasher h(kConfigTag);
  h.absorb(sel.k1);
  h.absorb(sel.k2);
  h.absorb(std::bit_cast<std::uint64_t>(sel.theta));
  h.absorb(sel.heuristic_cap);
  h.absorb(static_cast<std::uint64_t>(sel.metric));
  h.absorb(static_cast<std::uint64_t>(sel.dp));
  h.absorb(static_cast<std::uint64_t>(opts.l_pruning));
  return h.finish();
}

std::vector<CacheKey> derive_node_keys(const BinaryTree& btree, const FloorplanTree& tree,
                                       const OptimizerOptions& opts) {
  assert(btree.root != nullptr);
  const CacheKey cfg = config_fingerprint(opts);
  std::vector<CacheKey> keys(btree.node_count);
  derive(*btree.root, tree, cfg, keys);
  return keys;
}

}  // namespace fpopt
