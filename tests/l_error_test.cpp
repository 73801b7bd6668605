// Tests for l_dist, Compute_L_Error (any Lp metric), the L1 line-isometry
// oracle, and the paper's Lemmas 2 and 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/l_error.h"
#include "core/r_error.h"  // triangular_index
#include "test_util.h"

namespace fpopt {
namespace {

/// Bitwise row comparison: stricter than ==, distinguishes -0.0 from 0.0.
bool rows_same_bits(const std::vector<Weight>& a, const std::vector<Weight>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Weight)) == 0);
}

TEST(LDistTest, ManhattanIgnoresNothingButCountsW2Once) {
  const LImpl a{10, 5, 8, 3};
  const LImpl b{7, 5, 9, 6};
  EXPECT_EQ(l_dist(a, b, LpMetric::L1), 3 + 0 + 1 + 3);
  EXPECT_EQ(l_dist(a, b, LpMetric::LInf), 3);
  EXPECT_DOUBLE_EQ(l_dist(a, b, LpMetric::L2), std::sqrt(9.0 + 1.0 + 9.0));
}

TEST(LDistTest, MetricAxioms) {
  Pcg32 rng(5);
  const LList chain = test::random_l_chain(6, rng);
  for (const LpMetric m : {LpMetric::L1, LpMetric::L2, LpMetric::LInf}) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(l_dist(chain[i].shape, chain[i].shape, m), 0);
      for (std::size_t j = 0; j < chain.size(); ++j) {
        EXPECT_EQ(l_dist(chain[i].shape, chain[j].shape, m),
                  l_dist(chain[j].shape, chain[i].shape, m));
        for (std::size_t q = 0; q < chain.size(); ++q) {
          EXPECT_LE(l_dist(chain[i].shape, chain[j].shape, m),
                    l_dist(chain[i].shape, chain[q].shape, m) +
                        l_dist(chain[q].shape, chain[j].shape, m) + 1e-9);
        }
      }
    }
  }
}

TEST(LemmaTwoTest, DistancesGrowOutward) {
  // Lemma 2: for i' < i < j < j' in one chain, dist(i,j) <= dist(i',j)
  // and dist(i,j) <= dist(i,j'). Verified for every metric.
  Pcg32 rng(8);
  for (int iter = 0; iter < 20; ++iter) {
    const LList chain = test::random_l_chain(8, rng);
    for (const LpMetric m : {LpMetric::L1, LpMetric::L2, LpMetric::LInf}) {
      for (std::size_t ip = 0; ip < chain.size(); ++ip) {
        for (std::size_t i = ip + 1; i < chain.size(); ++i) {
          for (std::size_t j = i + 1; j < chain.size(); ++j) {
            EXPECT_LE(l_dist(chain[i].shape, chain[j].shape, m),
                      l_dist(chain[ip].shape, chain[j].shape, m) + 1e-9);
            for (std::size_t jp = j + 1; jp < chain.size(); ++jp) {
              EXPECT_LE(l_dist(chain[i].shape, chain[j].shape, m),
                        l_dist(chain[i].shape, chain[jp].shape, m) + 1e-9);
            }
          }
        }
      }
    }
  }
}

TEST(ComputeLErrorTest, MatchesDefinitionDirectly) {
  // error(i,j) must equal the sum over interior q of the min distance to
  // the two endpoints (Lemma 3 makes this the whole story).
  Pcg32 rng(9);
  for (int iter = 0; iter < 15; ++iter) {
    const LList chain = test::random_l_chain(2 + rng.below(10), rng);
    const auto shapes = chain.shapes();
    for (const LpMetric m : {LpMetric::L1, LpMetric::L2, LpMetric::LInf}) {
      const auto table = compute_l_error_table(shapes, m);
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        for (std::size_t j = i + 1; j < shapes.size(); ++j) {
          Weight expect = 0;
          for (std::size_t q = i + 1; q < j; ++q) {
            expect += std::min(l_dist(shapes[i], shapes[q], m), l_dist(shapes[q], shapes[j], m));
          }
          EXPECT_DOUBLE_EQ(table[triangular_index(shapes.size(), i, j)], expect);
        }
      }
    }
  }
}

// Float-accumulation-order audit (docs/ALGORITHMS.md §11): the only float
// accumulation feeding determinism-sensitive results is the L2 error
// table's per-entry sum. Its canonical order is q ascending; this pins it
// against an explicit reference loop.
TEST(ComputeLErrorTest, L2SummationOrderIsCanonical) {
  Pcg32 rng(0x5eed0008);
  const std::size_t n = 40;
  const LList chain = test::random_l_chain(n, rng);
  const std::vector<LImpl> shapes = chain.shapes();

  std::vector<Weight> want(n * (n - 1) / 2, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      Weight sum = 0;  // canonical order: q strictly ascending, one += per q
      for (std::size_t q = i + 1; q < j; ++q) {
        sum += std::min(l_dist(shapes[i], shapes[q], LpMetric::L2),
                        l_dist(shapes[q], shapes[j], LpMetric::L2));
      }
      want[triangular_index(n, i, j)] = sum;
    }
  }

  ASSERT_TRUE(rows_same_bits(compute_l_error_table(shapes, LpMetric::L2), want));
}

TEST(LemmaThreeTest, NearestKeptNeighborIsOneOfTheTwoAdjacentOnes) {
  // For any kept subset and any discarded element, the closest kept
  // element is its left or right neighbor.
  Pcg32 rng(10);
  for (int iter = 0; iter < 20; ++iter) {
    const LList chain = test::random_l_chain(9, rng);
    const auto shapes = chain.shapes();
    const std::vector<std::size_t> kept{0, 3, 6, 8};
    for (const LpMetric m : {LpMetric::L1, LpMetric::L2, LpMetric::LInf}) {
      for (std::size_t q = 0; q < shapes.size(); ++q) {
        if (std::find(kept.begin(), kept.end(), q) != kept.end()) continue;
        Weight global_min = kInfiniteWeight;
        for (const std::size_t d : kept) global_min = std::min(global_min, l_dist(shapes[q], shapes[d], m));
        std::size_t left = 0, right = 0;
        for (std::size_t s = 0; s + 1 < kept.size(); ++s) {
          if (kept[s] < q && q < kept[s + 1]) {
            left = kept[s];
            right = kept[s + 1];
          }
        }
        const Weight neighbor_min =
            std::min(l_dist(shapes[left], shapes[q], m), l_dist(shapes[q], shapes[right], m));
        EXPECT_DOUBLE_EQ(global_min, neighbor_min);
      }
    }
  }
}

TEST(L1ErrorOracleTest, DistanceIsAPotentialDifference) {
  Pcg32 rng(11);
  const LList chain = test::random_l_chain(12, rng);
  const auto shapes = chain.shapes();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t j = i + 1; j < shapes.size(); ++j) {
      const Area s_i = -shapes[i].w1 + shapes[i].h1 + shapes[i].h2;
      const Area s_j = -shapes[j].w1 + shapes[j].h1 + shapes[j].h2;
      EXPECT_EQ(l_dist(shapes[i], shapes[j], LpMetric::L1), static_cast<Weight>(s_j - s_i));
    }
  }
}

TEST(L1ErrorOracleTest, MatchesComputeLErrorEverywhere) {
  Pcg32 rng(12);
  for (int iter = 0; iter < 25; ++iter) {
    const LList chain = test::random_l_chain(2 + rng.below(25), rng);
    const auto shapes = chain.shapes();
    const auto table = compute_l_error_table(shapes, LpMetric::L1);
    const L1ErrorOracle oracle(shapes);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      for (std::size_t j = i + 1; j < shapes.size(); ++j) {
        EXPECT_DOUBLE_EQ(oracle.error(i, j), table[triangular_index(shapes.size(), i, j)])
            << "i=" << i << " j=" << j;
      }
    }
  }
}

TEST(L1ErrorOracleTest, CostSatisfiesTheQuadrangleInequality) {
  // Randomized QI check backing the Monge DP fast path for L_Selection.
  Pcg32 rng(13);
  for (int iter = 0; iter < 30; ++iter) {
    const LList chain = test::random_l_chain(10, rng);
    const L1ErrorOracle oracle(chain.shapes());
    for (std::size_t i = 0; i < 10; ++i) {
      for (std::size_t ip = i; ip < 10; ++ip) {
        for (std::size_t j = ip + 1; j < 10; ++j) {
          for (std::size_t jp = j; jp < 10; ++jp) {
            if (i >= j || ip >= jp) continue;
            EXPECT_LE(oracle.error(i, j) + oracle.error(ip, jp),
                      oracle.error(i, jp) + oracle.error(ip, j) + 1e-9);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fpopt
