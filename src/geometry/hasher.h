// 128-bit structural hashing shared by every content digest in fpopt: a
// module's implementation-list digest (floorplan/module.h) and the memo
// cache's subtree keys (cache/cache_key.h) run through this one hasher.
#pragma once

#include <cstdint>

namespace fpopt {

/// A 128-bit hash value.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// Two quasi-independent 64-bit mixing lanes; order-sensitive absorption.
/// The tag separates domains: equal absorbed words under different tags
/// give unrelated hashes.
class Hasher {
 public:
  explicit constexpr Hasher(std::uint64_t tag)
      : a_(splitmix64(tag ^ 0x243F6A8885A308D3ULL)),
        b_(splitmix64(tag ^ 0x13198A2E03707344ULL)) {}

  constexpr void absorb(std::uint64_t v) {
    a_ = splitmix64(a_ ^ v);
    b_ = splitmix64(b_ + v * 0xA24BAED4963EE407ULL + 0x632BE59BD9B4E019ULL);
  }

  constexpr void absorb(const Hash128& h) {
    absorb(h.hi);
    absorb(h.lo);
  }

  [[nodiscard]] constexpr Hash128 finish() const {
    return {splitmix64(a_ ^ (b_ >> 1)), splitmix64(b_ + (a_ << 1))};
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  std::uint64_t a_;
  std::uint64_t b_;
};

}  // namespace fpopt
