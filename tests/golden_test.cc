// Golden regression tests: pin exact outputs for fixed seeds. Any change
// to event ordering, RNG stream assignment, or model semantics shows up
// here first — deliberately brittle, to force such changes to be conscious
// (update the constants and note why in the commit).

#include <cstdint>

#include <gtest/gtest.h>

#include "core/system.h"
#include "sim/rng.h"

namespace bdisk {
namespace {

TEST(GoldenTest, RngStreamFirstDraws) {
  sim::Rng rng(20260704);
  // xoshiro256++ with SplitMix64 seeding: these values define the stream.
  const std::uint64_t first = rng.Next();
  const std::uint64_t second = rng.Next();
  sim::Rng again(20260704);
  EXPECT_EQ(again.Next(), first);
  EXPECT_EQ(again.Next(), second);
  EXPECT_NE(first, second);
  // And the canonical double stream stays in range with a fixed first
  // value across runs.
  sim::Rng d(42);
  const double u = d.NextDouble();
  sim::Rng d2(42);
  EXPECT_EQ(d2.NextDouble(), u);
}

TEST(GoldenTest, SmallSystemSteadyStateIsBitStable) {
  // Two *processes* would reproduce these exact numbers too; in-process we
  // assert two constructions agree to the bit, covering the whole stack
  // (pattern -> program -> server -> clients -> measurement).
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 25.0;
  config.seed = 424242;

  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 1000;
  protocol.max_measured_accesses = 2000;
  protocol.batch_size = 500;
  protocol.tolerance = 0.1;

  const core::RunResult a = core::System(config).RunSteadyState(protocol);
  const core::RunResult b = core::System(config).RunSteadyState(protocol);
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.response_stats.Variance(), b.response_stats.Variance());
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.mc_accesses, b.mc_accesses);
  EXPECT_EQ(a.sim_time_end, b.sim_time_end);
}

// Exact end-to-end outputs for all three delivery modes, captured from the
// pre-rewrite std::function/unordered_set event kernel. The zero-allocation
// kernel (intrusive handlers, generation-tagged ids, periodic slot timer)
// must reproduce every stream bit-for-bit: same event order, same RNG
// draws, same event count. Constants are hexfloats so the pin is exact.
struct ModeGolden {
  core::DeliveryMode mode;
  double mean_response;
  double variance;
  std::uint64_t count;
  std::uint64_t mc_accesses;
  std::uint64_t mc_pulls_sent;
  std::uint64_t requests_submitted;
  std::uint64_t requests_coalesced;
  std::uint64_t requests_dropped;
  double push_slot_frac;
  double pull_slot_frac;
  double idle_slot_frac;
  double sim_time_end;
  std::uint64_t events_executed;
};

TEST(GoldenTest, SteadyStateStreamsMatchPreKernelSwapPins) {
  const ModeGolden kGolden[] = {
      {core::DeliveryMode::kPurePush, 0x1.60189374bc6a7p+4,
       0x1.16371dfac03a6p+10, 1500, 1610, 0, 0, 0, 0, 0x1p+0, 0x0p+0, 0x0p+0,
       0x1.5928p+15, 45788},
      {core::DeliveryMode::kPurePull, 0x1.0d3b645a1cabcp+5,
       0x1.7e557cbee20e3p+12, 2000, 2110, 1040, 205450, 27590, 95163, 0x0p+0,
       0x1.fffe6a3590dfep-1, 0x1.95ca6f2026bc8p-17, 0x1.4301p+16, 498008},
      {core::DeliveryMode::kIpp, 0x1.d8dd2f1a9fbeap+4, 0x1.5c78959bf4953p+11,
       1500, 1610, 643, 109094, 16095, 64963, 0x1.fe10bbb49d06cp-2,
       0x1.00f7a225b17cap-1, 0x0p+0, 0x1.b442p+15, 336183},
  };

  for (const ModeGolden& g : kGolden) {
    SCOPED_TRACE(core::DeliveryModeName(g.mode));
    core::SystemConfig config;
    config.mode = g.mode;
    config.server_db_size = 100;
    config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
    config.cache_size = 10;
    config.server_queue_size = 10;
    config.mc_think_time = 5.0;
    config.think_time_ratio = 25.0;
    config.pull_bw = 0.5;
    config.thres_perc = 0.1;
    config.seed = 424242;

    core::SteadyStateProtocol protocol;
    protocol.post_fill_accesses = 100;
    protocol.min_measured_accesses = 1000;
    protocol.max_measured_accesses = 2000;
    protocol.batch_size = 500;
    protocol.tolerance = 0.1;

    core::System system(config);
    const core::RunResult r = system.RunSteadyState(protocol);
    EXPECT_EQ(r.mean_response, g.mean_response);
    EXPECT_EQ(r.response_stats.Variance(), g.variance);
    EXPECT_EQ(r.response_stats.Count(), g.count);
    EXPECT_EQ(r.mc_accesses, g.mc_accesses);
    EXPECT_EQ(r.mc_pulls_sent, g.mc_pulls_sent);
    EXPECT_EQ(r.requests_submitted, g.requests_submitted);
    EXPECT_EQ(r.requests_coalesced, g.requests_coalesced);
    EXPECT_EQ(r.requests_dropped, g.requests_dropped);
    EXPECT_EQ(r.push_slot_frac, g.push_slot_frac);
    EXPECT_EQ(r.pull_slot_frac, g.pull_slot_frac);
    EXPECT_EQ(r.idle_slot_frac, g.idle_slot_frac);
    EXPECT_EQ(r.sim_time_end, g.sim_time_end);
    // The events_executed constants were pinned before VC event fusion.
    // Each fused arrival was exactly one heap event back then, so the sum
    // is invariant: fusion may only move events out of the heap, never
    // change how many arrivals happen or in what order. (Pure-Push has no
    // VC, so there the pin still holds exactly.)
    EXPECT_EQ(system.simulator().EventsExecuted() +
                  system.simulator().FusedArrivals(),
              g.events_executed);
    if (g.mode == core::DeliveryMode::kPurePush) {
      EXPECT_EQ(system.simulator().EventsExecuted(), g.events_executed);
      EXPECT_EQ(system.simulator().FusedArrivals(), 0U);
    } else {
      // Fusion is on by default and the VC dominates the event count, so
      // most dispatches must have left the heap.
      EXPECT_GT(system.simulator().FusedArrivals(),
                system.simulator().EventsExecuted());
    }
  }
}

TEST(GoldenTest, ProgramForConfigMatchesSystemProgram) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.chop_count = 20;
  const auto standalone = core::ProgramForConfig(config);
  core::System system(config);
  ASSERT_EQ(standalone.Length(), system.program().Length());
  for (std::uint32_t pos = 0; pos < standalone.Length(); ++pos) {
    ASSERT_EQ(standalone.PageAt(pos), system.program().PageAt(pos)) << pos;
  }
}

TEST(GoldenTest, McPatternForConfigMatchesSystemPattern) {
  core::SystemConfig config;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.noise = 0.35;
  config.seed = 777;
  const auto standalone = core::McPatternForConfig(config);
  core::System system(config);
  for (broadcast::PageId p = 0; p < 100; ++p) {
    ASSERT_EQ(standalone.Prob(p), system.mc_pattern().Prob(p)) << p;
  }
}

TEST(GoldenTest, Figure1ProgramText) {
  const auto layout = broadcast::BuildPushLayout(
      {0.30, 0.20, 0.15, 0.12, 0.10, 0.08, 0.05},
      broadcast::DiskConfig::Figure1(), 0, 0);
  const broadcast::BroadcastProgram program(
      broadcast::BuildSchedule(layout.disk_pages,
                               broadcast::DiskConfig::Figure1().rel_freqs),
      7);
  EXPECT_EQ(program.ToString(), "0 1 3 0 2 4 0 1 5 0 2 6");
}

}  // namespace
}  // namespace bdisk
