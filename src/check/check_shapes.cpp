#include "check/check_shapes.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace fpopt {
namespace {

std::string rect_str(const RectImpl& r) {
  return "(" + std::to_string(r.w) + " x " + std::to_string(r.h) + ")";
}

std::string l_str(const LImpl& l) {
  return "L(w1=" + std::to_string(l.w1) + ",w2=" + std::to_string(l.w2) +
         ",h1=" + std::to_string(l.h1) + ",h2=" + std::to_string(l.h2) + ")";
}

std::string at(std::string_view where, std::size_t i) {
  return std::string(where) + "[" + std::to_string(i) + "]";
}

}  // namespace

CheckResult check_r_list(std::span<const RectImpl> impls, std::string_view where) {
  CheckResult res;
  for (std::size_t i = 0; i < impls.size() && res.room_for_more(); ++i) {
    if (!impls[i].valid()) {
      res.add("r-list/invalid-shape", at(where, i),
              rect_str(impls[i]) + " has a non-positive edge");
      continue;
    }
    if (i == 0) continue;
    const RectImpl& prev = impls[i - 1];
    const RectImpl& cur = impls[i];
    if (prev.w <= cur.w) {
      res.add("r-list/width-order", at(where, i),
              "w must strictly decrease (Def. 4): " + rect_str(prev) + " then " + rect_str(cur));
    }
    if (prev.h >= cur.h) {
      res.add("r-list/height-order", at(where, i),
              "h must strictly increase (Def. 5): " + rect_str(prev) + " then " + rect_str(cur));
    }
  }
  return res;
}

CheckResult check_r_list(const RList& list, std::string_view where) {
  return check_r_list(list.impls(), where);
}

CheckResult check_l_list(std::span<const LImpl> chain, std::string_view where) {
  CheckResult res;
  for (std::size_t i = 0; i < chain.size() && res.room_for_more(); ++i) {
    const LImpl& cur = chain[i];
    if (!cur.valid()) {
      res.add("l-list/invalid-shape", at(where, i),
              l_str(cur) + " violates w1 >= w2 > 0 or h1 >= h2 > 0");
      continue;
    }
    if (i == 0) continue;
    const LImpl& prev = chain[i - 1];
    if (prev.w2 != cur.w2) {
      res.add("l-list/w2-constant", at(where, i),
              "top-edge width must be constant in a chain (Def. 3): w2 " +
                  std::to_string(prev.w2) + " then " + std::to_string(cur.w2));
    }
    if (prev.w1 <= cur.w1) {
      res.add("l-list/w1-order", at(where, i),
              "w1 must strictly decrease: " + l_str(prev) + " then " + l_str(cur));
    }
    if (prev.h1 > cur.h1 || prev.h2 > cur.h2) {
      res.add("l-list/height-order", at(where, i),
              "(h1, h2) must be componentwise non-decreasing: " + l_str(prev) + " then " +
                  l_str(cur));
    }
    if (prev.h1 == cur.h1 && prev.h2 == cur.h2) {
      res.add("l-list/redundant", at(where, i),
              "equal (h1, h2) make the wider entry redundant (Def. 1): " + l_str(prev) +
                  " then " + l_str(cur));
    }
  }
  return res;
}

CheckResult check_l_list(const LList& chain, std::string_view where) {
  std::vector<LImpl> shapes;
  shapes.reserve(chain.size());
  for (const LEntry& e : chain) shapes.push_back(e.shape);
  return check_l_list(std::span<const LImpl>(shapes), where);
}

namespace {

/// Flattened view of one set entry for the cross-chain sweep.
struct FlatEntry {
  LImpl shape;
  std::size_t chain;
  std::size_t pos;
};

/// Cross-chain irreducibility of one w2 group: sweep in (w1 asc, h1 asc,
/// h2 asc) order keeping the 2-D staircase h1 -> min h2 of everything seen
/// so far; an entry whose (h1, h2) lies on or above the staircase is
/// dominated by (or duplicates) an earlier one, which Definition 1 forbids
/// for a non-redundant store.
void check_w2_group(std::span<const FlatEntry> group, std::string_view where,
                    CheckResult& res) {
  std::vector<const FlatEntry*> order;
  order.reserve(group.size());
  for (const FlatEntry& e : group) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const FlatEntry* a, const FlatEntry* b) {
    if (a->shape.w1 != b->shape.w1) return a->shape.w1 < b->shape.w1;
    if (a->shape.h1 != b->shape.h1) return a->shape.h1 < b->shape.h1;
    return a->shape.h2 < b->shape.h2;
  });

  std::map<Dim, Dim> frontier;  // h1 -> smallest h2 among entries with h1' <= h1
  for (const FlatEntry* e : order) {
    const auto it = frontier.upper_bound(e->shape.h1);
    if (it != frontier.begin() && std::prev(it)->second <= e->shape.h2) {
      if (!res.room_for_more()) return;
      res.add("l-set/cross-redundant",
              std::string(where) + " chain " + std::to_string(e->chain) + "[" +
                  std::to_string(e->pos) + "]",
              l_str(e->shape) + " is dominated by or duplicates another entry of its w2 group");
      continue;  // keep the frontier minimal: do not insert redundant entries
    }
    const auto [pos, inserted] = frontier.insert_or_assign(e->shape.h1, e->shape.h2);
    (void)inserted;
    for (auto nxt = std::next(pos); nxt != frontier.end() && nxt->second >= pos->second;) {
      nxt = frontier.erase(nxt);
    }
  }
}

}  // namespace

CheckResult check_l_list_set(const LListSet& set, bool cross_list, std::string_view where) {
  CheckResult res;
  const std::span<const LList> lists = set.lists();

  std::size_t total = 0;
  for (std::size_t c = 0; c < lists.size(); ++c) {
    if (lists[c].empty()) {
      res.add("l-set/empty-chain", std::string(where) + " chain " + std::to_string(c),
              "sets must not store empty chains");
      continue;
    }
    total += lists[c].size();
    res.merge(check_l_list(lists[c], std::string(where) + " chain " + std::to_string(c)));
  }
  if (total != set.total_size()) {
    res.add("l-set/size-accounting", std::string(where),
            "total_size() reports " + std::to_string(set.total_size()) + " but chains hold " +
                std::to_string(total));
  }
  if (!cross_list || !res.ok()) return res;

  // Group the whole store by w2 and sweep each group.
  std::vector<FlatEntry> flat;
  flat.reserve(total);
  for (std::size_t c = 0; c < lists.size(); ++c) {
    for (std::size_t i = 0; i < lists[c].size(); ++i) {
      flat.push_back({lists[c][i].shape, c, i});
    }
  }
  std::sort(flat.begin(), flat.end(),
            [](const FlatEntry& a, const FlatEntry& b) { return a.shape.w2 < b.shape.w2; });
  for (std::size_t lo = 0; lo < flat.size();) {
    std::size_t hi = lo + 1;
    while (hi < flat.size() && flat[hi].shape.w2 == flat[lo].shape.w2) ++hi;
    check_w2_group(std::span<const FlatEntry>(flat).subspan(lo, hi - lo), where, res);
    lo = hi;
  }
  return res;
}

}  // namespace fpopt
