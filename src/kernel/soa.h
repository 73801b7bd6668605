// Structure-of-arrays views over shape-curve data.
//
// The shape containers (RList, LList) are arrays-of-structs, which is the
// right layout for their incremental build/prune logic but the wrong one
// for row sweeps: a loop touching only widths strides over heights too.
// These views gather one field per contiguous row into arena scratch so
// the row helpers (sweep.h) stream unit-stride memory.
//
// Views borrow arena storage: they are valid only while the ArenaScope
// they were loaded under is alive (arena.h lifetime rules). Loading is a
// single pass, amortized by every helper call that reads the row again.
#pragma once

#include <cstddef>
#include <span>

#include "geometry/rect_impl.h"
#include "geometry/types.h"
#include "kernel/arena.h"

namespace fpopt::kernel {

/// One rectangle curve: parallel width/height rows, index-aligned with
/// the source list.
struct RCurveSoA {
  const Dim* w = nullptr;
  const Dim* h = nullptr;
  std::size_t n = 0;
};

/// Gathers `list` into arena rows (valid while `arena`'s current scope is).
[[nodiscard]] inline RCurveSoA load_r_curve(Arena& arena, std::span<const RectImpl> list) {
  Dim* w = arena.alloc_array<Dim>(list.size());
  Dim* h = arena.alloc_array<Dim>(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    w[i] = list[i].w;
    h[i] = list[i].h;
  }
  return {w, h, list.size()};
}

/// One irreducible L-chain: w2 is constant along a chain (shape/l_list.h
/// invariant), so only the varying fields get rows.
struct LChainSoA {
  const Dim* w1 = nullptr;
  const Dim* h1 = nullptr;
  const Dim* h2 = nullptr;
  std::size_t n = 0;
};

}  // namespace fpopt::kernel
