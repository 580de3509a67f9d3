#include "sim/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace bdisk::sim {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17U);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (const int c : counts) {
    // Each value should get ~10% +- 1.5% of draws.
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.015);
  }
}

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0U);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(9);
  const int n = 100000;
  int heads = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanAndPositivity) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextExponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngTest, ExponentialMemorylessTail) {
  // P(X > mean) should be e^-1 ~ 0.3679.
  Rng rng(19);
  const int n = 200000;
  int over = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.NextExponential(2.0) > 2.0) ++over;
  }
  EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-1.0), 0.01);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng a(123);
  Rng b(123);
  Rng a1 = a.Split();
  Rng b1 = b.Split();
  // Same parent state -> identical children.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a1.Next(), b1.Next());
  // Child differs from what the parent produces next.
  Rng c(123);
  Rng c1 = c.Split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c.Next() == c1.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

// --- NextPoisson ----------------------------------------------------------

// Upper 0.001 point of chi-square with `df` degrees of freedom
// (Wilson-Hilferty).
double ChiSquareCritical(double df) {
  const double z = 3.090;
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

double PoissonPmf(double mean, double k) {
  return std::exp(-mean + k * std::log(mean) - std::lgamma(k + 1.0));
}

// Draws `n` variates at `mean` and tests them against the exact pmf:
// consecutive values are pooled into bins of >= 20 expected draws (the
// two tails join the end bins), then a chi-square goodness-of-fit at the
// 0.001 level. Also checks the sample mean and variance within four
// standard errors (the variance of s^2 is (m + 2m^2)/n for a Poisson).
void ExpectPoissonDistribution(double mean, std::uint64_t seed, int n) {
  SCOPED_TRACE(testing::Message() << "mean " << mean);
  Rng rng(seed);
  std::vector<std::uint64_t> draws(n);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::uint64_t& x : draws) {
    x = rng.NextPoisson(mean);
    const double d = static_cast<double>(x) - mean;
    sum += d;
    sum_sq += d * d;
  }
  const double nd = n;
  EXPECT_LT(std::fabs(sum / nd), 4.0 * std::sqrt(mean / nd));
  const double var = (sum_sq - sum * sum / nd) / (nd - 1.0);
  EXPECT_LT(std::fabs(var - mean),
            4.0 * std::sqrt((mean + 2.0 * mean * mean) / nd));

  // Bin edges: bin b holds [edge[b], edge[b+1]).
  const double spread = 12.0 * std::sqrt(mean) + 12.0;
  const auto lo = static_cast<std::uint64_t>(std::max(0.0, mean - spread));
  const auto hi = static_cast<std::uint64_t>(mean + spread);
  std::vector<std::uint64_t> edges = {0};
  std::vector<double> expected = {0.0};
  for (std::uint64_t k = lo; k <= hi; ++k) {
    if (expected.back() >= 20.0) {
      edges.push_back(k);
      expected.push_back(0.0);
    }
    expected.back() += nd * PoissonPmf(mean, static_cast<double>(k));
  }
  // The last bin is open-ended and takes the whole right tail; a short
  // last bin joins its neighbour.
  if (expected.size() > 1 && expected.back() < 20.0) {
    expected[expected.size() - 2] += expected.back();
    expected.pop_back();
    edges.pop_back();
  }
  double inner = 0.0;
  for (std::size_t b = 0; b + 1 < expected.size(); ++b) inner += expected[b];
  expected.back() = nd - inner;
  ASSERT_GE(expected.size(), 2U);
  std::vector<double> observed(expected.size(), 0.0);
  for (const std::uint64_t x : draws) {
    const auto it = std::upper_bound(edges.begin(), edges.end(), x);
    observed[static_cast<std::size_t>(it - edges.begin()) - 1] += 1.0;
  }
  double x2 = 0.0;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    const double d = observed[b] - expected[b];
    x2 += d * d / expected[b];
  }
  const double df = static_cast<double>(expected.size() - 1);
  EXPECT_LT(x2, ChiSquareCritical(df)) << "df " << df;
}

TEST(RngTest, PoissonMatchesPmfAtTinyMean) {
  ExpectPoissonDistribution(1e-3, 31, 400000);
}

TEST(RngTest, PoissonMatchesPmfBelowOne) {
  ExpectPoissonDistribution(0.5, 32, 200000);
}

TEST(RngTest, PoissonMatchesPmfAtSaturatedSlotMean) {
  // The saturated benchmark's stream-A arrivals per slot.
  ExpectPoissonDistribution(4.75, 33, 200000);
}

TEST(RngTest, PoissonMatchesPmfOnTheRejectionBranch) {
  ExpectPoissonDistribution(40.0, 34, 200000);
}

TEST(RngTest, PoissonMatchesPmfAtHugeMean) {
  ExpectPoissonDistribution(1e6, 35, 200000);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(36);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextPoisson(0.0), 0U);
}

TEST(RngTest, PoissonInversionWithCachedStartMatchesNextPoisson) {
  Rng a(37);
  Rng b(37);
  const double mean = 4.75;
  const double start = std::exp(-mean);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextPoissonByInversion(mean, start), b.NextPoisson(mean));
  }
  EXPECT_EQ(a.Next(), b.Next());
}

// Like GoldenTest.RngStreamFirstDraws: the first variates on each branch
// define the stream the virtual client's collapsed counts come from.
TEST(RngTest, PoissonFirstDraws) {
  Rng rng(20260704);
  const double means[] = {1e-3, 0.5, 4.75, 9.99, 10.0, 40.0, 1e6, 5e7};
  const std::uint64_t kPinned[] = {
      0,       0,       0,       0,        1,        1,
      3,       7,       0,       11,       12,       7,
      10,      7,       9,       42,       47,       41,
      997718,  1002205, 996647,  49998628, 50005546, 49999079};
  std::vector<std::uint64_t> got;
  for (const double m : means) {
    for (int i = 0; i < 3; ++i) got.push_back(rng.NextPoisson(m));
  }
  EXPECT_EQ(got, std::vector<std::uint64_t>(std::begin(kPinned),
                                            std::end(kPinned)));
}

// Up to 2^52 every integer near the mean is a double; past it the variate
// would not be exact (nor, far enough, fit 64 bits), so the draw refuses.
TEST(RngDeathTest, PoissonRejectsMeansPastItsExactRange) {
  Rng rng(38);
  const double mean = Rng::kPoissonMaxMean;
  EXPECT_NEAR(static_cast<double>(rng.NextPoisson(mean)), mean,
              10.0 * std::sqrt(mean));
  EXPECT_DEATH(rng.NextPoisson(1e20), "2\\^52");
}

}  // namespace
}  // namespace bdisk::sim
