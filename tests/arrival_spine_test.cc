// FillArrivalBatch bulk-draws the full, unthinned VC arrival stream (the
// benchmark harness replays it): it must consume the RNG stream in exactly
// the scalar order — page, steady coin, think — per arrival, stop at the
// horizon, and leave the stream positioned where the scalar loop would.
// These tests pin it draw-for-draw.

#include "client/arrival_spine.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "workload/access_generator.h"
#include "workload/access_pattern.h"
#include "workload/think_time.h"

namespace bdisk::client {
namespace {

struct ScalarArrival {
  sim::SimTime at;
  PageId page;
  bool steady;
};

// The reference: the VC's scalar drain loop, draw order page -> coin ->
// think per arrival.
std::vector<ScalarArrival> ScalarDrain(const workload::AccessGenerator& gen,
                                       const workload::ThinkTime& think,
                                       double steady_perc, sim::Rng& rng,
                                       sim::SimTime* next_arrival,
                                       sim::SimTime horizon) {
  std::vector<ScalarArrival> out;
  while (*next_arrival <= horizon) {
    ScalarArrival arrival;
    arrival.at = *next_arrival;
    arrival.page = gen.Next(rng);
    arrival.steady = rng.NextBernoulli(steady_perc);
    *next_arrival += think.Next(rng);
    out.push_back(arrival);
  }
  return out;
}

TEST(FillArrivalBatchTest, MatchesScalarDrawOrderAcrossSeeds) {
  const workload::AccessPattern pattern =
      workload::AccessPattern::Zipf(50, 0.95);
  const workload::AccessGenerator generator(pattern);
  const workload::ThinkTime think = workload::ThinkTime::Exponential(0.1);
  // 0.95 draws the coin; 0.0 and 1.0 are the no-draw Bernoulli edges.
  for (const double steady_perc : {0.95, 0.0, 1.0}) {
    for (const std::uint64_t seed : {1ULL, 99ULL, 20260809ULL}) {
      sim::Rng scalar_rng(seed);
      sim::SimTime scalar_next = 0.5;
      const std::vector<ScalarArrival> expected = ScalarDrain(
          generator, think, steady_perc, scalar_rng, &scalar_next, 40.0);
      ASSERT_GT(expected.size(), 0U);
      ASSERT_LT(expected.size(), 1024U);  // Fits one scratch fill.

      sim::Rng bulk_rng(seed);
      sim::SimTime bulk_next = 0.5;
      ArrivalScratch scratch(1024);
      const std::size_t n = FillArrivalBatch(generator, think, steady_perc,
                                             bulk_rng, &bulk_next, 40.0,
                                             &scratch);
      ASSERT_EQ(n, expected.size()) << "perc " << steady_perc;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scratch.at[i], expected[i].at) << i;
        EXPECT_EQ(scratch.page[i], expected[i].page) << i;
        EXPECT_EQ(scratch.steady[i] != 0, expected[i].steady) << i;
      }
      // The stream and the pre-drawn next arrival line up exactly.
      EXPECT_EQ(bulk_next, scalar_next);
      EXPECT_EQ(bulk_rng.Next(), scalar_rng.Next());
    }
  }
}

TEST(FillArrivalBatchTest, ChunkingIsInvariant) {
  // Draining through a small scratch in many fills equals one big fill:
  // the chunk boundary is invisible to the stream.
  const workload::AccessPattern pattern =
      workload::AccessPattern::Zipf(20, 0.8);
  const workload::AccessGenerator generator(pattern);
  const workload::ThinkTime think = workload::ThinkTime::Exponential(0.05);

  sim::Rng whole_rng(7);
  sim::SimTime whole_next = 0.0;
  ArrivalScratch whole(4096);
  const std::size_t total = FillArrivalBatch(generator, think, 0.9,
                                             whole_rng, &whole_next, 30.0,
                                             &whole);
  ASSERT_GT(total, 8U);
  ASSERT_LT(total, 4096U);

  sim::Rng chunk_rng(7);
  sim::SimTime chunk_next = 0.0;
  ArrivalScratch chunk(8);  // Forces many partial fills.
  std::size_t seen = 0;
  while (chunk_next <= 30.0) {
    const std::size_t n = FillArrivalBatch(generator, think, 0.9, chunk_rng,
                                           &chunk_next, 30.0, &chunk);
    ASSERT_GT(n, 0U);
    for (std::size_t i = 0; i < n; ++i, ++seen) {
      ASSERT_LT(seen, total);
      EXPECT_EQ(chunk.at[i], whole.at[seen]);
      EXPECT_EQ(chunk.page[i], whole.page[seen]);
      EXPECT_EQ(chunk.steady[i], whole.steady[seen]);
    }
  }
  EXPECT_EQ(seen, total);
  EXPECT_EQ(chunk_next, whole_next);
  EXPECT_EQ(chunk_rng.Next(), whole_rng.Next());
}

TEST(FillArrivalBatchTest, CapacityBoundsOneFill) {
  const workload::AccessPattern pattern =
      workload::AccessPattern::Zipf(10, 0.5);
  const workload::AccessGenerator generator(pattern);
  const workload::ThinkTime think = workload::ThinkTime::Exponential(0.01);
  sim::Rng rng(3);
  sim::SimTime next = 0.0;
  ArrivalScratch scratch(16);
  EXPECT_EQ(scratch.Capacity(), 16U);
  const std::size_t n =
      FillArrivalBatch(generator, think, 0.5, rng, &next, 1e9, &scratch);
  EXPECT_EQ(n, 16U);  // Horizon far away: the fill stops at capacity.
}

TEST(FillArrivalBatchTest, NothingBeforeHorizonFillsNothing) {
  const workload::AccessPattern pattern =
      workload::AccessPattern::Zipf(10, 0.5);
  const workload::AccessGenerator generator(pattern);
  const workload::ThinkTime think = workload::ThinkTime::Exponential(1.0);
  sim::Rng rng(4);
  const sim::Rng before = rng;
  sim::SimTime next = 5.0;
  ArrivalScratch scratch(16);
  EXPECT_EQ(
      FillArrivalBatch(generator, think, 0.5, rng, &next, 4.0, &scratch), 0U);
  EXPECT_EQ(next, 5.0);  // Untouched.
  sim::Rng untouched = before;
  EXPECT_EQ(rng.Next(), untouched.Next());  // No draws consumed.
}

}  // namespace
}  // namespace bdisk::client
