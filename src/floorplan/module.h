// Leaf modules of a floorplan: a name plus the irreducible R-list of all
// non-redundant implementations (the optimizer's input, Section 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "geometry/hasher.h"
#include "shape/r_list.h"

namespace fpopt {

/// A module's implementation list together with its 128-bit content digest.
///
/// Invariant: digest() is the digest of the list held. The list is
/// read-only; the only ways to set it — construction from an RList and
/// assignment of one — recompute the digest, so no module carries a stale
/// one. The memo cache builds its leaf keys from the digest
/// (cache/cache_key.cpp); a stale digest would serve another list's
/// results. Equal lists have equal digests. As with any standard
/// container, a moved-from value may only be assigned to or destroyed.
class ModuleImpls {
 public:
  ModuleImpls() : ModuleImpls(RList{}) {}
  explicit ModuleImpls(RList list) : list_(std::move(list)), digest_(digest_of(list_)) {}

  ModuleImpls& operator=(RList list) { return *this = ModuleImpls(std::move(list)); }

  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] const RectImpl& operator[](std::size_t i) const { return list_[i]; }
  [[nodiscard]] std::span<const RectImpl> impls() const { return list_.impls(); }
  [[nodiscard]] auto begin() const { return list_.begin(); }
  [[nodiscard]] auto end() const { return list_.end(); }
  [[nodiscard]] std::optional<Dim> min_height_at(Dim w) const { return list_.min_height_at(w); }

  /// Implicit, so the list reads wherever an RList is expected.
  operator const RList&() const { return list_; }

  [[nodiscard]] const Hash128& digest() const { return digest_; }

  friend bool operator==(const ModuleImpls&, const ModuleImpls&) = default;

 private:
  [[nodiscard]] static Hash128 digest_of(const RList& list) {
    Hasher h(0x1A7E5D16E57A11CDULL);  // domain tag (arbitrary odd constant)
    h.absorb(list.size());
    for (const RectImpl& r : list) {
      h.absorb(static_cast<std::uint64_t>(r.w));
      h.absorb(static_cast<std::uint64_t>(r.h));
    }
    return h.finish();
  }

  RList list_;
  Hash128 digest_;
};

struct Module {
  std::string name;
  ModuleImpls impls;

  Module() = default;
  Module(std::string n, RList i) : name(std::move(n)), impls(std::move(i)) {}

  friend bool operator==(const Module&, const Module&) = default;
};

/// The module with free 90-degree rotation: every implementation is added
/// in both orientations and the union is dominance-pruned back to an
/// irreducible R-list. The result's curve is symmetric about w == h.
[[nodiscard]] inline Module with_rotation(const Module& module) {
  std::vector<RectImpl> cands;
  cands.reserve(2 * module.impls.size());
  for (const RectImpl& r : module.impls) {
    cands.push_back(r);
    cands.push_back({r.h, r.w});
  }
  return Module{module.name, RList::from_candidates(std::move(cands))};
}

}  // namespace fpopt
