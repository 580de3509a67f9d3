// Distributional gate for the virtual client's thinned arrival streams.
//
// The VC draws only the arrivals that can miss (stream A) plus one clock
// per cold warm-set page (stream B). That is exact in distribution but not
// in random stream, so it is checked against the paper's process drawn in
// full: a test-local loop that draws every access (page from the whole
// pattern, steady coin, exponential think time), filters it through the
// ideal warm cache and the threshold filter, and re-warms on steady misses
// — the VC as it was before thinning. Fixed seeds make every check
// deterministic; the thresholds are the 0.001 critical values, so a real
// difference in distribution fails them while sampling noise does not.
//
// At System level the thinned VC is held to statistics of the full-draw VC
// pinned from many seeds.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "client/virtual_client.h"
#include "full_draw_vc.h"
#include "core/system.h"
#include "obs/trace_sink.h"
#include "server/broadcast_server.h"
#include "server/update_generator.h"
#include "sim/simulator.h"
#include "sim/zipf.h"

namespace bdisk {
namespace {

using broadcast::PageId;

struct Case {
  double think_time_ratio;
  double thres_perc;
  double update_rate;
  double slots;
  double steady_state_perc = 0.95;  // Table 3's SteadyStatePerc.
};

// The VC's submits of one run: their times, in order, and per-page counts.
struct Submits {
  std::vector<double> times;
  std::vector<double> per_page;
};

// Runs one VC (thinned or full-draw) against a server on the Table 3
// defaults at the case's load, with no measured client, and reads its
// submits back from the server's trace.
Submits RunVc(const Case& c, bool thinned, std::uint64_t seed) {
  core::SystemConfig config;
  config.mode = core::DeliveryMode::kIpp;
  config.think_time_ratio = c.think_time_ratio;
  config.thres_perc = c.thres_perc;
  config.steady_state_perc = c.steady_state_perc;
  const auto artifacts = core::BuildArtifacts(config);

  sim::Simulator sim;
  server::BroadcastServer server(&sim, artifacts->program,
                                 config.EffectivePullBw(),
                                 config.server_queue_size, sim::Rng(seed));
  // One record per slot and per submit; submits are at most the full
  // access rate.
  const double access_rate = config.think_time_ratio / config.mc_think_time;
  obs::TraceSink sink(
      static_cast<std::size_t>(c.slots * (1.0 + access_rate) + 1024));
  server.SetTraceSink(&sink);

  client::VirtualClientOptions options;
  options.mc_think_time = config.mc_think_time;
  options.think_time_ratio = config.think_time_ratio;
  options.steady_state_perc = config.steady_state_perc;
  options.thres_perc = config.thres_perc;
  options.cache_size = config.cache_size;
  const std::vector<PageId> warm =
      core::TopValuedPages(artifacts->canonical_values, config.cache_size);
  const sim::Rng vc_rng(seed * 7919 + 1);

  std::unique_ptr<client::VirtualClient> vc;
  std::unique_ptr<FullDrawVc> full;
  server::InvalidationListener* listener = nullptr;
  if (thinned) {
    vc = std::make_unique<client::VirtualClient>(
        &sim, &server, artifacts->canonical_pattern, warm, options, vc_rng);
    vc->Start();
    listener = vc.get();
  } else {
    full = std::make_unique<FullDrawVc>(&sim, &server,
                                        artifacts->canonical_pattern, warm,
                                        options, vc_rng);
    full->Start();
    listener = full.get();
  }
  // The update stream is exogenous to the VC, so both sides share its seed.
  std::unique_ptr<server::UpdateGenerator> updates;
  if (c.update_rate > 0.0) {
    updates = std::make_unique<server::UpdateGenerator>(
        &sim, c.update_rate,
        sim::ZipfPmf(config.server_db_size, config.zipf_theta),
        sim::Rng(seed + 17));
    updates->AddListener(listener);
    updates->Start();
  }
  sim.RunUntil(c.slots);
  sim.CatchUpLazySources();

  EXPECT_EQ(sink.DroppedEvents(), 0U);
  Submits out;
  out.per_page.assign(config.server_db_size, 0.0);
  for (const obs::SpanRecord& r : sink.Events()) {
    if (r.client != obs::kVirtualClientId) continue;
    if (r.event != obs::SpanEvent::kSubmitAccepted &&
        r.event != obs::SpanEvent::kSubmitCoalesced &&
        r.event != obs::SpanEvent::kSubmitDropped) {
      continue;
    }
    out.times.push_back(r.time);
    out.per_page[r.page] += 1.0;
  }
  if (thinned) {
    EXPECT_EQ(vc->RequestsSubmitted(), out.times.size());
    EXPECT_EQ(vc->RequestsGenerated(),
              vc->RequestsSubmitted() + vc->FilteredByThreshold());
  }
  return out;
}

// Upper 0.001 point of chi-square with `df` degrees of freedom
// (Wilson-Hilferty).
double ChiSquareCritical(double df) {
  const double z = 3.090;  // Upper 0.001 point of the standard normal.
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

// Two-sample chi-square homogeneity test on per-page counts. Pages with
// fewer than 10 submits over both samples are pooled into one bin.
void ExpectSamePageMix(const Submits& a, const Submits& b) {
  std::vector<std::pair<double, double>> bins;
  std::pair<double, double> pooled{0.0, 0.0};
  for (std::size_t p = 0; p < a.per_page.size(); ++p) {
    if (a.per_page[p] + b.per_page[p] >= 10.0) {
      bins.emplace_back(a.per_page[p], b.per_page[p]);
    } else {
      pooled.first += a.per_page[p];
      pooled.second += b.per_page[p];
    }
  }
  if (pooled.first + pooled.second > 0.0) bins.push_back(pooled);
  ASSERT_GE(bins.size(), 10U);
  const double na = static_cast<double>(a.times.size());
  const double nb = static_cast<double>(b.times.size());
  const double ka = std::sqrt(nb / na);
  const double kb = std::sqrt(na / nb);
  double x2 = 0.0;
  for (const auto& [ca, cb] : bins) {
    const double d = ca * ka - cb * kb;
    x2 += d * d / (ca + cb);
  }
  const double df = static_cast<double>(bins.size() - 1);
  EXPECT_LT(x2, ChiSquareCritical(df)) << "df " << df;
}

// The submit counts over the same horizon agree as two Poisson counts.
void ExpectSameRate(const Submits& a, const Submits& b) {
  const double na = static_cast<double>(a.times.size());
  const double nb = static_cast<double>(b.times.size());
  ASSERT_GT(na + nb, 1000.0);
  EXPECT_LT(std::fabs(na - nb) / std::sqrt(na + nb), 3.29)
      << na << " vs " << nb << " submits";
}

// Two-sample Kolmogorov-Smirnov test on the inter-submit gaps.
void ExpectSameGaps(const Submits& a, const Submits& b) {
  const auto gaps = [](const std::vector<double>& t) {
    std::vector<double> g;
    for (std::size_t i = 1; i < t.size(); ++i) g.push_back(t[i] - t[i - 1]);
    std::sort(g.begin(), g.end());
    return g;
  };
  const std::vector<double> ga = gaps(a.times);
  const std::vector<double> gb = gaps(b.times);
  ASSERT_GT(ga.size(), 100U);
  ASSERT_GT(gb.size(), 100U);
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ga.size() && j < gb.size()) {
    const double x = std::min(ga[i], gb[j]);
    while (i < ga.size() && ga[i] <= x) ++i;
    while (j < gb.size() && gb[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / ga.size() -
                              static_cast<double>(j) / gb.size()));
  }
  const double n = static_cast<double>(ga.size());
  const double m = static_cast<double>(gb.size());
  const double critical = 1.949 * std::sqrt((n + m) / (n * m));  // 0.001.
  EXPECT_LT(d, critical);
}

void ExpectSameSubmitProcess(const Case& c, std::uint64_t seed) {
  const Submits thinned = RunVc(c, /*thinned=*/true, seed);
  const Submits full = RunVc(c, /*thinned=*/false, seed);
  ExpectSameRate(thinned, full);
  ExpectSamePageMix(thinned, full);
  ExpectSameGaps(thinned, full);
}

TEST(VcThinningTest, MatchesFullDrawAtLightLoad) {
  ExpectSameSubmitProcess(Case{10.0, 0.0, 0.0, 100000.0}, 101);
}

TEST(VcThinningTest, MatchesFullDrawAtHeavyLoad) {
  ExpectSameSubmitProcess(Case{250.0, 0.0, 0.0, 20000.0}, 102);
}

TEST(VcThinningTest, MatchesFullDrawUnderThreshold) {
  ExpectSameSubmitProcess(Case{50.0, 0.3, 0.0, 40000.0}, 103);
}

// Updates knock warm-set pages cold: stream B's clocks and the re-warm on
// their firing carry a large share of the submits here.
TEST(VcThinningTest, MatchesFullDrawUnderUpdates) {
  ExpectSameSubmitProcess(Case{10.0, 0.0, 0.5, 100000.0}, 104);
}

// Half the population steady: stream B's rate λσq_p is half of page p's
// access rate λq_p, so a clock drawn without σ (twice too fast) shows.
TEST(VcThinningTest, MatchesFullDrawUnderUpdatesAtHalfSteady) {
  ExpectSameSubmitProcess(Case{10.0, 0.0, 0.5, 100000.0, 0.5}, 105);
}

// --- System level -------------------------------------------------------

// Mean and sample standard deviation of one output over seeds 1..40.
struct Pin {
  double mean;
  double sd;
};

struct SystemPins {
  double think_time_ratio;
  double update_rate;
  Pin mean_response;
  Pin drop_ratio;
  Pin pull_slot_share;
  Pin vc_submits_per_slot;
};

constexpr int kPinnedSeeds = 40;

// Measured on the last full-draw VC (commit 474da32, before thinning) by
// running SystemOutputs below for seeds 1..40; the outputs are
// deterministic, so the pins are exact for that code.
constexpr SystemPins kFullDrawPins[] = {
    {10.0, 0.0, {20.831759, 0.925414}, {0.369577063, 0.00390825},
     {0.499506262, 0.00245867}, {0.974624375, 0.00509712}},
    {25.0, 0.5, {31.8518483, 32.8161}, {0.675266411, 0.00179739},
     {0.499528762, 0.00245854}, {2.67700563, 0.00709209}},
};

// SystemTest's scaled-down config on a fixed 40000-slot horizon.
std::vector<double> SystemOutputs(double think_time_ratio, double update_rate,
                                  std::uint64_t seed) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = think_time_ratio;
  config.update_rate = update_rate;
  config.seed = seed;
  core::SteadyStateProtocol protocol;
  protocol.min_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_fill_accesses = 500;
  protocol.post_fill_accesses = 100;
  protocol.max_sim_time = 40000.0;
  const core::RunResult r = core::System(config).RunSteadyState(protocol);
  return {r.mean_response,
          static_cast<double>(r.requests_dropped) /
              static_cast<double>(r.requests_submitted),
          r.pull_slot_frac,
          static_cast<double>(r.vc_submitted) / r.sim_time_end};
}

// Each output's mean over the same 40 seeds lies within three standard
// errors of the full-draw pin (two independent samples of 40).
TEST(VcThinningTest, SystemStatisticsMatchFullDrawPins) {
  const char* const kNames[] = {"mean_response", "drop_ratio",
                                "pull_slot_share", "vc_submits_per_slot"};
  for (const SystemPins& pins : kFullDrawPins) {
    SCOPED_TRACE(testing::Message() << "ttr " << pins.think_time_ratio
                                    << " updates " << pins.update_rate);
    std::vector<double> sum(4, 0.0);
    std::vector<double> sum_sq(4, 0.0);
    for (int seed = 1; seed <= kPinnedSeeds; ++seed) {
      const std::vector<double> v =
          SystemOutputs(pins.think_time_ratio, pins.update_rate, seed);
      for (std::size_t i = 0; i < v.size(); ++i) {
        sum[i] += v[i];
        sum_sq[i] += v[i] * v[i];
      }
    }
    const Pin pinned[] = {pins.mean_response, pins.drop_ratio,
                          pins.pull_slot_share, pins.vc_submits_per_slot};
    const double n = kPinnedSeeds;
    for (std::size_t i = 0; i < 4; ++i) {
      const double mean = sum[i] / n;
      const double var = std::max(0.0, (sum_sq[i] - n * mean * mean) / (n - 1));
      const double se = std::sqrt((pinned[i].sd * pinned[i].sd + var) / n);
      EXPECT_LT(std::fabs(mean - pinned[i].mean), 3.0 * se)
          << kNames[i] << ": " << mean << " vs pinned " << pinned[i].mean;
    }
  }
}

}  // namespace
}  // namespace bdisk
