#include "core/config.h"

#include <limits>

#include <gtest/gtest.h>

namespace bdisk::core {
namespace {

TEST(ConfigTest, DefaultsAreThePaperTable3AndValid) {
  SystemConfig config;
  EXPECT_TRUE(config.Validate().empty()) << config.Validate();
  EXPECT_EQ(config.server_db_size, 1000U);
  EXPECT_EQ(config.cache_size, 100U);
  EXPECT_EQ(config.server_queue_size, 100U);
  EXPECT_EQ(config.mc_think_time, 20.0);
  EXPECT_EQ(config.zipf_theta, 0.95);
  EXPECT_EQ(config.disks.sizes, (std::vector<std::uint32_t>{100, 400, 500}));
  EXPECT_EQ(config.disks.rel_freqs, (std::vector<std::uint32_t>{3, 2, 1}));
  EXPECT_EQ(config.EffectiveOffset(), 100U);  // Offset = CacheSize.
}

TEST(ConfigTest, EffectivePullBwFollowsMode) {
  SystemConfig config;
  config.pull_bw = 0.3;
  config.mode = DeliveryMode::kPurePush;
  EXPECT_EQ(config.EffectivePullBw(), 0.0);
  config.mode = DeliveryMode::kPurePull;
  EXPECT_EQ(config.EffectivePullBw(), 1.0);
  config.mode = DeliveryMode::kIpp;
  EXPECT_EQ(config.EffectivePullBw(), 0.3);
}

TEST(ConfigTest, ModeNames) {
  EXPECT_STREQ(DeliveryModeName(DeliveryMode::kPurePush), "Push");
  EXPECT_STREQ(DeliveryModeName(DeliveryMode::kPurePull), "Pull");
  EXPECT_STREQ(DeliveryModeName(DeliveryMode::kIpp), "IPP");
}

TEST(ConfigTest, RejectsDiskSizeMismatch) {
  SystemConfig config;
  config.server_db_size = 900;
  EXPECT_NE(config.Validate().find("sum"), std::string::npos);
}

TEST(ConfigTest, PurePullIgnoresDiskShape) {
  SystemConfig config;
  config.mode = DeliveryMode::kPurePull;
  config.server_db_size = 900;  // Disks no longer match: fine for pull.
  EXPECT_TRUE(config.Validate().empty()) << config.Validate();
}

TEST(ConfigTest, RejectsIppWithZeroPullBw) {
  SystemConfig config;
  config.pull_bw = 0.0;
  EXPECT_NE(config.Validate().find("Pure-Push"), std::string::npos);
}

TEST(ConfigTest, RejectsPushWithTruncation) {
  SystemConfig config;
  config.mode = DeliveryMode::kPurePush;
  config.chop_count = 100;
  EXPECT_NE(config.Validate().find("truncate"), std::string::npos);
}

TEST(ConfigTest, RejectsChopOfEverything) {
  SystemConfig config;
  config.chop_count = 1000;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(ConfigTest, RejectsOffsetBeyondBroadcastPages) {
  SystemConfig config;
  config.chop_count = 950;
  config.offset = 100;
  EXPECT_NE(config.Validate().find("offset"), std::string::npos);
}

TEST(ConfigTest, RejectsCacheAsLargeAsDatabase) {
  SystemConfig config;
  config.cache_size = 1000;
  EXPECT_NE(config.Validate().find("smaller"), std::string::npos);
}

TEST(ConfigTest, RejectsBadFractions) {
  SystemConfig config;
  config.thres_perc = 1.2;
  EXPECT_FALSE(config.Validate().empty());
  config = SystemConfig{};
  config.noise = -0.2;
  EXPECT_FALSE(config.Validate().empty());
  config = SystemConfig{};
  config.steady_state_perc = 2.0;
  EXPECT_FALSE(config.Validate().empty());
  config = SystemConfig{};
  config.pull_bw = 1.0001;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(ConfigTest, RejectsNonFiniteReals) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    SystemConfig config;
    config.pull_bw = bad;
    EXPECT_NE(config.Validate().find("pull_bw"), std::string::npos);
    config = SystemConfig{};
    config.think_time_ratio = bad;
    EXPECT_NE(config.Validate().find("think_time_ratio"), std::string::npos);
    config = SystemConfig{};
    config.steady_state_perc = bad;
    EXPECT_FALSE(config.Validate().empty());
    config = SystemConfig{};
    config.update_zipf_theta = bad;
    EXPECT_FALSE(config.Validate().empty());
    config = SystemConfig{};
    config.fault.slot_loss = bad;
    EXPECT_NE(config.Validate().find("fault.slot_loss"), std::string::npos);
    config = SystemConfig{};
    config.fault.mc_backoff = bad;
    EXPECT_FALSE(config.Validate().empty());
  }
}

// Each update is its own event and barrier, so the rate is capped at one
// update per page per slot; the error names the key and the ceiling.
TEST(ConfigTest, RejectsUpdateRateAboveTheDatabaseSize) {
  SystemConfig config;
  config.update_rate = static_cast<double>(config.server_db_size);
  EXPECT_EQ(config.Validate(), "");
  config.update_rate = 1e9;
  EXPECT_EQ(config.Validate(),
            "update_rate must be at most server_db_size (1000) updates per "
            "slot");
  config.server_db_size = 2000'000'000;
  config.update_rate = 1e9;
  EXPECT_EQ(config.Validate().find("update_rate"), std::string::npos);
}

// The virtual client's request rate is capped at 1e9 per slot; the
// error names the key and the ceiling.
TEST(ConfigTest, RejectsThinkTimeRatioAboveTheRequestCeiling) {
  SystemConfig config;
  config.think_time_ratio = kMaxVcRequestsPerSlot * config.mc_think_time;
  EXPECT_EQ(config.Validate(), "");
  config.think_time_ratio = 1e300;
  EXPECT_EQ(config.Validate(),
            "think_time_ratio must be at most 1e9 * mc_think_time: the "
            "virtual client issues at most 1e9 requests per slot");
  config.think_time_ratio = 250.0;
  config.mc_think_time = 1e-300;
  EXPECT_NE(config.Validate().find("think_time_ratio"), std::string::npos);
}

TEST(ConfigTest, ExplicitOffsetOverridesDefault) {
  SystemConfig config;
  config.offset = 0;
  EXPECT_EQ(config.EffectiveOffset(), 0U);
  EXPECT_TRUE(config.Validate().empty());
}

}  // namespace
}  // namespace bdisk::core
