// Distributional gate for the virtual client's full-queue collapse.
//
// While the pull queue is full the VC counts each barrier segment's
// arrivals (one Poisson count split by the class masses) instead of
// drawing them. That is exact in distribution but not in random stream,
// so it is checked against a VC that draws every arrival (FullDrawVc)
// driving the same server, MUX and queue: per-window filtered, coalesced
// and dropped counts, and the queue depth at the window edges, by
// two-sample KS, a two-sample chi-square on their histograms and a Welch z
// on the means (0.001 level, fixed seeds).
// No observer is attached, so the collapsed VC books its counts in bulk —
// the path the benchmark runs.
//
// At System level the collapsed VC is held to statistics of the
// per-arrival VC pinned from many seeds.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "client/full_queue_split.h"
#include "client/virtual_client.h"
#include "core/system.h"
#include "full_draw_vc.h"
#include "obs/trace_sink.h"
#include "server/broadcast_server.h"
#include "server/update_generator.h"
#include "sim/simulator.h"
#include "sim/zipf.h"

namespace bdisk {
namespace {

struct Case {
  core::DeliveryMode mode = core::DeliveryMode::kIpp;
  double think_time_ratio = 250.0;
  double thres_perc = 0.0;
  std::uint32_t server_queue_size = 100;
  double update_rate = 0.0;
};

constexpr double kWindow = 20.0;   // Slots per window.
constexpr int kWindows = 1500;     // Windows per run.

// Per-window samples of one run.
struct Windows {
  std::vector<double> filtered;
  std::vector<double> coalesced;
  std::vector<double> dropped;
  std::vector<double> accepted;
  std::vector<double> depth;  // Queue depth at each window's end.
  std::uint64_t generated = 0;
  std::uint64_t drawn = 0;  // Arrivals drawn one by one (collapsed VC).
};

// Runs one VC (the production VC, or the full-draw reference) against a
// server on the Table 3 defaults with the case's changes, with no measured
// client and no observer, and reads the counters at each window edge. The
// edges sit mid-slot, after the slot decision.
Windows RunVc(const Case& c, bool collapsing, std::uint64_t seed) {
  core::SystemConfig config;
  config.mode = c.mode;
  config.think_time_ratio = c.think_time_ratio;
  config.thres_perc = c.thres_perc;
  config.server_queue_size = c.server_queue_size;
  const auto artifacts = core::BuildArtifacts(config);

  sim::Simulator sim;
  server::BroadcastServer server(&sim, artifacts->program,
                                 config.EffectivePullBw(),
                                 config.server_queue_size, sim::Rng(seed));
  client::VirtualClientOptions options;
  options.mc_think_time = config.mc_think_time;
  options.think_time_ratio = config.think_time_ratio;
  options.steady_state_perc = config.steady_state_perc;
  options.thres_perc =
      c.mode == core::DeliveryMode::kIpp ? config.thres_perc : 0.0;
  options.cache_size = config.cache_size;
  const std::vector<PageId> warm =
      core::TopValuedPages(artifacts->canonical_values, config.cache_size);
  const sim::Rng vc_rng(seed * 7919 + 1);

  std::unique_ptr<client::VirtualClient> vc;
  std::unique_ptr<FullDrawVc> full;
  server::InvalidationListener* listener = nullptr;
  if (collapsing) {
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

  const server::PullQueue& queue = server.queue();
  const auto filtered = [&] {
    return collapsing ? vc->FilteredByThreshold() : full->Filtered();
  };
  // A warm-up stretch lets the queue fill first.
  sim.RunUntil(200.5);
  Windows out;
  std::uint64_t f0 = filtered();
  std::uint64_t c0 = queue.CoalescedCount();
  std::uint64_t d0 = queue.DroppedCount();
  std::uint64_t a0 = queue.AcceptedCount();
  for (int w = 1; w <= kWindows; ++w) {
    sim.RunUntil(200.5 + w * kWindow);
    const std::uint64_t f1 = filtered();
    const std::uint64_t c1 = queue.CoalescedCount();
    const std::uint64_t d1 = queue.DroppedCount();
    const std::uint64_t a1 = queue.AcceptedCount();
    out.filtered.push_back(static_cast<double>(f1 - f0));
    out.coalesced.push_back(static_cast<double>(c1 - c0));
    out.dropped.push_back(static_cast<double>(d1 - d0));
    out.accepted.push_back(static_cast<double>(a1 - a0));
    out.depth.push_back(static_cast<double>(queue.Size()));
    f0 = f1;
    c0 = c1;
    d0 = d1;
    a0 = a1;
  }
  if (collapsing) {
    out.generated = vc->RequestsGenerated();
    out.drawn = sim.FusedArrivals();
    EXPECT_EQ(vc->RequestsGenerated(),
              vc->RequestsSubmitted() + vc->FilteredByThreshold());
    EXPECT_EQ(vc->RequestsSubmitted(), queue.SubmittedCount());
  }
  return out;
}

// Two-sample Kolmogorov-Smirnov at the 0.001 level.
void ExpectSameDistribution(std::vector<double> a, std::vector<double> b,
                            const char* what) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / a.size() -
                              static_cast<double>(j) / b.size()));
  }
  const double n = static_cast<double>(a.size());
  const double m = static_cast<double>(b.size());
  EXPECT_LT(d, 1.949 * std::sqrt((n + m) / (n * m))) << what << " (KS)";
}

// Two-sample chi-square on the histogram of values, at the 0.001 level.
// Adjacent values are pooled into bins of at least 10 observations of both
// samples together; a series with a single bin (the queue depth of a queue
// that is always full) has nothing to compare beyond its mean.
void ExpectSameHistogram(const std::vector<double>& a,
                         const std::vector<double>& b, const char* what) {
  std::vector<std::pair<double, int>> pooled;  // (value, sample).
  for (const double x : a) pooled.emplace_back(x, 0);
  for (const double x : b) pooled.emplace_back(x, 1);
  std::sort(pooled.begin(), pooled.end());
  std::vector<std::array<double, 2>> bins;
  std::array<double, 2> bin{0.0, 0.0};
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    ++bin[pooled[i].second];
    const bool value_ends = i + 1 == pooled.size() ||
                            pooled[i + 1].first != pooled[i].first;
    if (value_ends && bin[0] + bin[1] >= 10.0) {
      bins.push_back(bin);
      bin = {0.0, 0.0};
    }
  }
  if (!bins.empty()) {  // A short last run joins the bin before it.
    bins.back()[0] += bin[0];
    bins.back()[1] += bin[1];
  }
  if (bins.size() < 2) return;
  const double n = static_cast<double>(a.size());
  const double m = static_cast<double>(b.size());
  double chi2 = 0.0;
  for (const auto& [x, y] : bins) {
    const double d = std::sqrt(m / n) * x - std::sqrt(n / m) * y;
    chi2 += d * d / (x + y);
  }
  // The 0.999 quantile of chi-square(df), by Wilson-Hilferty.
  const double df = static_cast<double>(bins.size() - 1);
  const double h = 2.0 / (9.0 * df);
  const double critical = df * std::pow(1.0 - h + 3.09 * std::sqrt(h), 3);
  EXPECT_LT(chi2, critical) << what << " (chi-square, " << df << " df)";
}

// Welch z on the two samples' means, at the 0.001 level.
void ExpectSameMean(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  const auto moments = [](const std::vector<double>& v) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const double x : v) {
      sum += x;
      sum_sq += x * x;
    }
    const double n = static_cast<double>(v.size());
    const double mean = sum / n;
    return std::pair<double, double>{
        mean, std::max(0.0, (sum_sq - n * mean * mean) / (n - 1.0)) / n};
  };
  const auto [ma, va] = moments(a);
  const auto [mb, vb] = moments(b);
  if (va + vb == 0.0) {
    EXPECT_EQ(ma, mb) << what;
    return;
  }
  EXPECT_LT(std::fabs(ma - mb) / std::sqrt(va + vb), 3.29)
      << what << ": " << ma << " vs " << mb << " per window";
}

void ExpectSameWindows(const Case& c, std::uint64_t seed) {
  const Windows collapsed = RunVc(c, /*collapsing=*/true, seed);
  const Windows full = RunVc(c, /*collapsing=*/false, seed);
  // The collapse must really have carried the load: most arrivals were
  // counted, not drawn.
  EXPECT_LT(2 * collapsed.drawn, collapsed.generated)
      << collapsed.drawn << " drawn of " << collapsed.generated;
  const struct {
    const char* name;
    const std::vector<double>& a;
    const std::vector<double>& b;
  } series[] = {
      {"filtered", collapsed.filtered, full.filtered},
      {"coalesced", collapsed.coalesced, full.coalesced},
      {"dropped", collapsed.dropped, full.dropped},
      {"accepted", collapsed.accepted, full.accepted},
      {"queue depth", collapsed.depth, full.depth},
  };
  for (const auto& s : series) {
    ExpectSameMean(s.a, s.b, s.name);
    ExpectSameDistribution(s.a, s.b, s.name);
    ExpectSameHistogram(s.a, s.b, s.name);
  }
}

// The saturated benchmark workload: Table 3 at TTR 250.
TEST(VcCollapseTest, MatchesPerArrivalAtTtr250) {
  ExpectSameWindows(Case{}, 201);
}

// A threshold of 0.3 cycles: F(pos) spans hundreds of slots, so the
// filtered mass is large and moves as the window slides.
TEST(VcCollapseTest, MatchesPerArrivalUnderWideThreshold) {
  Case c;
  c.thres_perc = 0.3;
  ExpectSameWindows(c, 202);
}

// A ten-page queue: the queued mass is small and refills after every pop.
TEST(VcCollapseTest, MatchesPerArrivalWithShortQueue) {
  Case c;
  c.server_queue_size = 10;
  ExpectSameWindows(c, 203);
}

// Pure-Pull: no program, nothing filtered, one pop per slot.
TEST(VcCollapseTest, MatchesPerArrivalUnderPurePull) {
  Case c;
  c.mode = core::DeliveryMode::kPurePull;
  ExpectSameWindows(c, 204);
}

// Updates make warm pages cold: each new stream-B clock ends the collapse.
TEST(VcCollapseTest, MatchesPerArrivalUnderUpdates) {
  Case c;
  c.update_rate = 0.05;
  ExpectSameWindows(c, 205);
}

// The split's incremental masses equal a brute-force sum over all pages
// at every step: random accepts and pops (fed through the listener calls),
// and Sync to positions a random gap ahead, short (walked) and long
// (rebuilt), on thresholds of 0, 7 and 0.3 of the cycle.
TEST(VcCollapseTest, SplitMassesMatchBruteForce) {
  core::SystemConfig config;
  const auto artifacts = core::BuildArtifacts(config);
  const broadcast::BroadcastProgram& program = *artifacts->program;
  const std::uint32_t length = program.Length();
  const sim::AliasSampler pages(artifacts->canonical_pattern.probs());
  for (const std::uint32_t threshold : {0U, 7U, length * 3 / 10}) {
    SCOPED_TRACE(testing::Message() << "T " << threshold);
    const auto table =
        broadcast::CycleSpanTable::BuildIfFeasible(program, threshold);
    server::PullQueue queue(100, config.server_db_size);
    client::FullQueueSplit split(program, table.get(), threshold, queue);
    sim::Rng rng(threshold + 1);
    std::uint32_t pos = 0;
    for (int i = 0; i < 40; ++i) {
      queue.Submit(static_cast<PageId>(pages.Sample(rng)));
    }
    split.Init(pages, pos);
    std::vector<std::uint64_t> weight(config.server_db_size);
    for (PageId p = 0; p < weight.size(); ++p) {
      weight[p] = static_cast<std::uint64_t>(
          std::ldexp(pages.Probability(p), 52));
    }
    for (int step = 0; step < 3000; ++step) {
      if (rng.NextBernoulli(0.5)) {
        const auto page = static_cast<PageId>(pages.Sample(rng));
        if (queue.Submit(page) == server::SubmitResult::kAccepted) {
          split.OnQueued(page);
        }
      } else if (!queue.Empty()) {
        split.OnDequeued(queue.PopFront());
      }
      const std::uint64_t gap =
          rng.NextBernoulli(0.9) ? rng.NextBounded(3) : rng.NextBounded(length);
      pos = static_cast<std::uint32_t>((pos + gap) % length);
      split.Sync(pos);
      std::uint64_t total = 0;
      std::uint64_t filtered = 0;
      std::uint64_t coalesced = 0;
      for (PageId p = 0; p < weight.size(); ++p) {
        total += weight[p];
        if (program.DistanceToNext(pos, p) <= threshold) {
          filtered += weight[p];
        } else if (queue.IsQueued(p)) {
          coalesced += weight[p];
        }
      }
      ASSERT_EQ(split.Total(), total);
      ASSERT_EQ(split.Filtered(), filtered) << "step " << step;
      ASSERT_EQ(split.Coalesced(), coalesced) << "step " << step;
    }
  }
}

// --- System level -------------------------------------------------------

struct Pin {
  double mean;
  double sd;
};

struct SystemPins {
  const char* name;
  std::uint32_t server_db_size;
  std::uint32_t server_queue_size;
  double horizon;
  Pin mean_response;
  Pin drop_ratio;
  Pin pull_slot_share;
};

constexpr int kPinnedSeeds = 40;

// Measured on the per-arrival VC (commit 4141978, the last one before the
// collapse) by running SystemOutputs below for seeds 1..40; the outputs
// are deterministic, so the pins are exact for that code.
constexpr SystemPins kPerArrivalPins[] = {
    {"table3", 1000, 100, 200000.0, {347.093964, 40.1688}, {0.742078082, 0.000557798},
     {0.499562127, 0.00117216}},
    {"scaled", 100, 10, 40000.0, {32.1208368, 1.80442}, {0.838716104, 0.000686179},
     {0.499528762, 0.00245854}},
};

// IPP at TTR 250 on a fixed horizon: the Table 3 defaults, and
// SystemTest's scaled-down config. At Table 3 scale the measured client
// completes only ~1.5 accesses per 1000 slots, hence its longer horizon.
std::vector<double> SystemOutputs(std::uint32_t db_size,
                                  std::uint32_t queue_size, double horizon,
                                  std::uint64_t seed) {
  core::SystemConfig config;
  config.think_time_ratio = 250.0;
  config.seed = seed;
  if (db_size != config.server_db_size) {
    config.server_db_size = db_size;
    config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
    config.cache_size = 10;
    config.mc_think_time = 5.0;
  }
  config.server_queue_size = queue_size;
  core::SteadyStateProtocol protocol;
  protocol.min_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_fill_accesses = 100;
  protocol.post_fill_accesses = 20;
  protocol.max_sim_time = horizon;
  const core::RunResult r = core::System(config).RunSteadyState(protocol);
  return {r.mean_response,
          static_cast<double>(r.requests_dropped) /
              static_cast<double>(r.requests_submitted),
          r.pull_slot_frac};
}

// Each output's mean over the same 40 seeds lies within three standard
// errors of the per-arrival pin (two independent samples of 40).
TEST(VcCollapseTest, SystemStatisticsMatchPerArrivalPins) {
  const char* const kNames[] = {"mean_response", "drop_ratio",
                                "pull_slot_share"};
  for (const SystemPins& pins : kPerArrivalPins) {
    SCOPED_TRACE(pins.name);
    std::vector<double> sum(3, 0.0);
    std::vector<double> sum_sq(3, 0.0);
    for (int seed = 1; seed <= kPinnedSeeds; ++seed) {
      const std::vector<double> v =
          SystemOutputs(pins.server_db_size, pins.server_queue_size,
                        pins.horizon, seed);
      for (std::size_t i = 0; i < v.size(); ++i) {
        sum[i] += v[i];
        sum_sq[i] += v[i] * v[i];
      }
    }
    const Pin pinned[] = {pins.mean_response, pins.drop_ratio,
                          pins.pull_slot_share};
    const double n = kPinnedSeeds;
    for (std::size_t i = 0; i < 3; ++i) {
      const double mean = sum[i] / n;
      const double var = std::max(0.0, (sum_sq[i] - n * mean * mean) / (n - 1));
      const double se = std::sqrt((pinned[i].sd * pinned[i].sd + var) / n);
      EXPECT_LT(std::fabs(mean - pinned[i].mean), 3.0 * se)
          << kNames[i] << ": " << mean << " vs pinned " << pinned[i].mean;
    }
  }
}

// At a huge load every slot is one segment of ~2e4 arrivals, so the counts
// come from the large-mean Poisson sampler and, with a trace attached,
// each segment is expanded into that many records one at a time. The
// expansion must leave every counter as the unobserved run has it, give
// every counted submit one record, and keep the VC's records in time
// order.
TEST(VcCollapseTest, ObserverRecordsAtHugeLoadMatchTheCounts) {
  core::SystemConfig config;
  config.think_time_ratio = 2e4 * config.mc_think_time;
  ASSERT_EQ(config.Validate(), "");
  core::SteadyStateProtocol protocol;
  protocol.min_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_fill_accesses = 10;
  protocol.post_fill_accesses = 2;
  protocol.max_sim_time = 100.0;

  const core::RunResult plain = core::System(config).RunSteadyState(protocol);
  core::System observed(config);
  obs::TraceSink sink(1 << 12);
  observed.AttachTrace(&sink);
  const core::RunResult traced = observed.RunSteadyState(protocol);

  EXPECT_GT(plain.vc_requests_generated, 500000U);
  EXPECT_LT(observed.simulator().FusedArrivals(),
            plain.vc_requests_generated / 1000);
  EXPECT_EQ(traced.vc_requests_generated, plain.vc_requests_generated);
  EXPECT_EQ(traced.vc_submitted, plain.vc_submitted);
  EXPECT_EQ(traced.requests_submitted, plain.requests_submitted);
  EXPECT_EQ(traced.requests_coalesced, plain.requests_coalesced);
  EXPECT_EQ(traced.requests_dropped, plain.requests_dropped);
  EXPECT_EQ(traced.mean_response, plain.mean_response);
  EXPECT_EQ(traced.sim_time_end, plain.sim_time_end);
  EXPECT_EQ(sink.Count(obs::SpanEvent::kSubmitAccepted) +
                sink.Count(obs::SpanEvent::kSubmitCoalesced) +
                sink.Count(obs::SpanEvent::kSubmitDropped),
            traced.requests_submitted);

  sim::SimTime last = 0.0;
  std::size_t vc_records = 0;
  for (const obs::SpanRecord& r : sink.Events()) {
    if (r.client != obs::kVirtualClientId) continue;
    EXPECT_GE(r.time, last);
    last = r.time;
    ++vc_records;
  }
  EXPECT_GT(vc_records, 1000U);
}

}  // namespace
}  // namespace bdisk
