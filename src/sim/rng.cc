#include "sim/rng.h"

#include <array>
#include <cmath>

namespace bdisk::sim {

namespace {

// SplitMix64: used to expand a 64-bit seed into the 256-bit xoshiro state.
inline std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ln k!: exact sums below 16, Stirling's series (error < 1e-14) above.
// Local, not std::lgamma, which writes the global signgam.
double LogFactorial(double k) {
  static const auto kSmall = [] {
    std::array<double, 16> t{};
    for (std::size_t i = 2; i < t.size(); ++i) {
      t[i] = t[i - 1] + std::log(static_cast<double>(i));
    }
    return t;
  }();
  if (k < 16.0) return kSmall[static_cast<std::size_t>(k)];
  const double r = 1.0 / k;
  const double r2 = r * r;
  return k * std::log(k) - k + 0.5 * std::log(6.283185307179586 * k) +
         r * (1.0 / 12.0 -
              r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)));
}

}  // namespace

std::uint64_t Rng::NextPoissonPtrs(double mean) {
  // Hörmann, "The transformed rejection method for generating Poisson
  // random variables" (1993), algorithm PTRS: a transformed-uniform
  // proposal with a squeeze, exact by the final log-pmf comparison.
  BDISK_CHECK_MSG(mean <= kPoissonMaxMean, "Poisson mean past 2^52");
  const double slam = std::sqrt(mean);
  const double loglam = std::log(mean);
  const double b = 0.931 + 2.53 * slam;
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double vr = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = NextDouble() - 0.5;
    const double v = NextDouble();
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= vr) return static_cast<std::uint64_t>(kd);
    // Negative proposals (and us == 0's infinities) are rejected; so are
    // proposals past 2^62, whose pmf is 0 in double for any finite mean
    // this is asked for.
    if (!(kd >= 0.0 && kd < 0x1p62) || (us < 0.013 && v > us)) continue;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        -mean + kd * loglam - LogFactorial(kd)) {
      return static_cast<std::uint64_t>(kd);
    }
  }
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // An all-zero state would be absorbing; SplitMix64 cannot produce four
  // zero outputs in a row, but keep the guard for safety.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::Split() { return Rng(Next() ^ 0xD2B74407B1CE6E93ULL); }

}  // namespace bdisk::sim
