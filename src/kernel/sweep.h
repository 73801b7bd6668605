// Row helpers for the [9] wheel combines and the Stockmeyer merge: one
// output row per (row, broadcast value) pair over SoA rows (soa.h). Pure
// int64 min/max/+ over Dim, written as plain left-to-right loops.
#pragma once

#include <algorithm>
#include <cstddef>

#include "geometry/types.h"

namespace fpopt::kernel {

/// out[t] = in[t] + c
inline void add_broadcast(const Dim* in, std::size_t n, Dim c, Dim* out) {
  for (std::size_t t = 0; t < n; ++t) out[t] = in[t] + c;
}

/// out[t] = max(in[t], c)
inline void max_broadcast(const Dim* in, std::size_t n, Dim c, Dim* out) {
  for (std::size_t t = 0; t < n; ++t) out[t] = std::max(in[t], c);
}

/// out[t] = max(a[t], b[t] + c)
inline void max_add_broadcast(const Dim* a, const Dim* b, std::size_t n, Dim c, Dim* out) {
  for (std::size_t t = 0; t < n; ++t) out[t] = std::max(a[t], b[t] + c);
}

/// out[t] = max(a[t], b[t])
inline void max_rows(const Dim* a, const Dim* b, std::size_t n, Dim* out) {
  for (std::size_t t = 0; t < n; ++t) out[t] = std::max(a[t], b[t]);
}

}  // namespace fpopt::kernel
