#include "client/virtual_client.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace bdisk::client {
namespace {

using broadcast::BroadcastProgram;
using server::BroadcastServer;
using workload::AccessPattern;

AccessPattern AlwaysPage(std::size_t db_size, PageId page) {
  std::vector<double> probs(db_size, 0.0);
  probs[page] = 1.0;
  return AccessPattern(probs);
}

VirtualClientOptions BaseOptions() {
  VirtualClientOptions options;
  options.mc_think_time = 20.0;
  options.think_time_ratio = 10.0;  // Mean inter-arrival 2.0.
  options.steady_state_perc = 0.0;
  options.thres_perc = 0.0;
  options.cache_size = 2;
  return options;
}

TEST(VirtualClientTest, GeneratesAtTheConfiguredRate) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({0, 1, 2, 3}, 4), 0.5, 10,
                         sim::Rng(1));
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, BaseOptions(),
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(10000.0);
  // ~5000 arrivals expected (mean inter-arrival 2.0).
  EXPECT_GT(vc.RequestsGenerated(), 4500U);
  EXPECT_LT(vc.RequestsGenerated(), 5500U);
}

TEST(VirtualClientTest, WarmupRequestsBypassTheCache) {
  // steady_state_perc = 0: every arrival is a warm-up client; even pages in
  // the warm set are submitted.
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({0, 1, 2, 3}, 4), 0.5, 10,
                         sim::Rng(1));
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, BaseOptions(),
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(100.0);
  EXPECT_GT(vc.RequestsSubmitted(), 0U);
  // Everything either goes to the server or is held back by the zero
  // threshold (requests whose page is the very next push slot).
  EXPECT_EQ(vc.RequestsSubmitted() + vc.FilteredByThreshold(),
            vc.RequestsGenerated());
}

TEST(VirtualClientTest, SteadyStateRequestsFilterThroughWarmCache) {
  // steady_state_perc = 1 and the requested page is in the warm set: every
  // access is a cache hit, so the VC has no arrival that can miss. It
  // draws nothing, and nothing reaches the server.
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({0, 1, 2, 3}, 4), 0.5, 10,
                         sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.steady_state_perc = 1.0;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, options,
                   sim::Rng(2));
  vc.Start();
  EXPECT_EQ(vc.NextArrivalTime(), sim::kTimeNever);
  sim.RunUntil(100.0);
  EXPECT_EQ(vc.RequestsGenerated(), 0U);
  EXPECT_EQ(vc.RequestsSubmitted(), 0U);
  EXPECT_EQ(server.queue().SubmittedCount(), 0U);
}

TEST(VirtualClientTest, SteadyStateMissesAreSubmitted) {
  // Warm set does NOT contain the hot page: steady-state accesses miss and
  // are submitted.
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({0, 1, 2, 3}, 4), 0.5, 10,
                         sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.steady_state_perc = 1.0;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {0, 1}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(100.0);
  EXPECT_EQ(vc.RequestsSubmitted() + vc.FilteredByThreshold(),
            vc.RequestsGenerated());
  EXPECT_GT(vc.RequestsSubmitted(), 0U);
}

TEST(VirtualClientTest, ThresholdFiltersSubmissions) {
  // Page 2 appears every other slot; with ThresPerc=100% the filter blocks
  // every request for it.
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({2, 0}, 4), 0.5, 10,
                         sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.thres_perc = 1.0;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {1, 3}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(100.0);
  EXPECT_GT(vc.RequestsGenerated(), 0U);
  EXPECT_EQ(vc.RequestsSubmitted(), 0U);
  EXPECT_EQ(vc.FilteredByThreshold(), vc.RequestsGenerated());
}

TEST(VirtualClientTest, MixedSteadyStateSplitsRoughlyByCoin) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({0, 1, 2, 3}, 4), 0.5, 100,
                         sim::Rng(1));
  VirtualClientOptions options = BaseOptions();
  options.steady_state_perc = 0.95;
  VirtualClient vc(&sim, &server, AlwaysPage(4, 2), {2, 3}, options,
                   sim::Rng(2));
  vc.Start();
  sim.RunUntil(20000.0);
  // 95% of the ~10000 accesses hit the warm cache and are never drawn;
  // the ~5% warm-up ones miss, so the VC draws ~0.05 of the access rate
  // (0.5 per unit time), and each draw is submitted or filtered.
  EXPECT_EQ(vc.RequestsSubmitted() + vc.FilteredByThreshold(),
            vc.RequestsGenerated());
  const double rate = static_cast<double>(vc.RequestsGenerated()) / 20000.0;
  EXPECT_NEAR(rate, 0.05 * 0.5, 0.005);
  EXPECT_GT(vc.RequestsSubmitted(), 0U);
}

TEST(VirtualClientDeathTest, RejectsWrongWarmSetSize) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({0, 1, 2, 3}, 4), 0.5, 10,
                         sim::Rng(1));
  EXPECT_DEATH(VirtualClient(&sim, &server, AlwaysPage(4, 2), {2},
                             BaseOptions(), sim::Rng(2)),
               "CacheSize");
}

TEST(VirtualClientDeathTest, RejectsDuplicateWarmPages) {
  sim::Simulator sim;
  BroadcastServer server(&sim, BroadcastProgram({0, 1, 2, 3}, 4), 0.5, 10,
                         sim::Rng(1));
  EXPECT_DEATH(VirtualClient(&sim, &server, AlwaysPage(4, 2), {2, 2},
                             BaseOptions(), sim::Rng(2)),
               "distinct");
}

}  // namespace
}  // namespace bdisk::client
