#include "core/config_io.h"

#include <gtest/gtest.h>

namespace bdisk::core {
namespace {

TEST(ConfigIoTest, AppliesScalarOptions) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("pull_bw", "0.3", &config), "");
  EXPECT_EQ(config.pull_bw, 0.3);
  EXPECT_EQ(ApplyConfigOption("cache_size", "50", &config), "");
  EXPECT_EQ(config.cache_size, 50U);
  EXPECT_EQ(ApplyConfigOption("seed", "12345", &config), "");
  EXPECT_EQ(config.seed, 12345U);
  EXPECT_EQ(ApplyConfigOption("vc_enabled", "false", &config), "");
  EXPECT_FALSE(config.vc_enabled);
}

TEST(ConfigIoTest, AppliesEnumOptions) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("mode", "pull", &config), "");
  EXPECT_EQ(config.mode, DeliveryMode::kPurePull);
  EXPECT_EQ(ApplyConfigOption("chunking", "pad", &config), "");
  EXPECT_EQ(config.chunking, broadcast::ChunkingMode::kPad);
  EXPECT_EQ(ApplyConfigOption("mc_policy", "lru", &config), "");
  EXPECT_EQ(config.mc_policy, cache::PolicyKind::kLru);
  EXPECT_EQ(ApplyConfigOption("mc_policy", "default", &config), "");
  EXPECT_FALSE(config.mc_policy.has_value());
}

TEST(ConfigIoTest, AppliesListOptions) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("disk_sizes", "50, 200, 250", &config), "");
  EXPECT_EQ(config.disks.sizes, (std::vector<std::uint32_t>{50, 200, 250}));
  EXPECT_EQ(ApplyConfigOption("disk_freqs", "4,2,1", &config), "");
  EXPECT_EQ(config.disks.rel_freqs, (std::vector<std::uint32_t>{4, 2, 1}));
}

TEST(ConfigIoTest, OffsetSpecialValues) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("offset", "42", &config), "");
  EXPECT_EQ(config.offset, 42U);
  EXPECT_EQ(ApplyConfigOption("offset", "cache_size", &config), "");
  EXPECT_FALSE(config.offset.has_value());
}

TEST(ConfigIoTest, RejectsUnknownKeysAndBadValues) {
  SystemConfig config;
  EXPECT_NE(ApplyConfigOption("bogus", "1", &config), "");
  EXPECT_NE(ApplyConfigOption("pull_bw", "abc", &config), "");
  EXPECT_NE(ApplyConfigOption("mode", "hybrid", &config), "");
  EXPECT_NE(ApplyConfigOption("vc_enabled", "maybe", &config), "");
  EXPECT_NE(ApplyConfigOption("disk_sizes", "", &config), "");
}

TEST(ConfigIoTest, RejectsOutOfRangeNegativeAndNonFiniteNumbers) {
  const struct {
    const char* key;
    const char* value;
  } cases[] = {
      {"cache_size", "4294967396"},   // 2^32 + 100: would wrap to 100.
      {"cache_size", "4294967296"},   // 2^32.
      {"server_queue_size", "-1"},    // strtoull would give 2^64 - 1.
      {"server_db_size", "-0"},
      {"disk_sizes", "10,-40,50"},
      {"offset", "99999999999"},
      {"seed", "18446744073709551616"},  // 2^64: strtoull saturates.
      {"seed", "-5"},
      {"think_time_ratio", "inf"},
      {"think_time_ratio", "nan"},
      {"pull_bw", "nan"},
      {"pull_bw", "-nan"},
      {"mc_think_time", "infinity"},
      {"thres_perc", "1e999"},
      {"update_zipf_theta", "inf"},
      {"obs_window", "nan"},
      {"fault.slot_loss", "nan"},
      {"fault.request_delay", "inf"},
      {"fault.mc_max_retries", "4294967296"},
  };
  for (const auto& c : cases) {
    SystemConfig config;
    const SystemConfig before = config;
    EXPECT_EQ(ApplyConfigOption(c.key, c.value, &config),
              std::string("invalid value for ") + c.key)
        << c.key << "=" << c.value;
    EXPECT_EQ(ConfigToText(config), ConfigToText(before))
        << "a rejected value must leave the config untouched";
  }
  // The edges of the ranges still parse.
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("cache_size", "4294967295", &config), "");
  EXPECT_EQ(config.cache_size, 4294967295U);
  EXPECT_EQ(ApplyConfigOption("seed", "18446744073709551615", &config), "");
  EXPECT_EQ(config.seed, 18446744073709551615ULL);
  EXPECT_EQ(ApplyConfigOption("thres_perc", "1e-300", &config), "");
}

TEST(ConfigIoTest, PrintedRealsRoundTripExactly) {
  SystemConfig config;
  config.pull_bw = 0.1 + 0.2;  // Not a short decimal.
  config.think_time_ratio = 1.0 / 3.0;
  config.fault.mc_backoff = 2.718281828459045;  // Plan otherwise inert.
  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  EXPECT_EQ(parsed.pull_bw, config.pull_bw);
  EXPECT_EQ(parsed.think_time_ratio, config.think_time_ratio);
  EXPECT_EQ(parsed.fault, config.fault);
}

TEST(ConfigIoTest, ParsesWholeText) {
  SystemConfig config;
  const std::string text =
      "# paper defaults with a twist\n"
      "mode = ipp\n"
      "pull_bw = 0.3   # less pull\n"
      "\n"
      "thres_perc = 0.35\n";
  EXPECT_EQ(ParseConfigText(text, &config), "");
  EXPECT_EQ(config.pull_bw, 0.3);
  EXPECT_EQ(config.thres_perc, 0.35);
}

TEST(ConfigIoTest, ReportsErrorsWithLineNumbers) {
  SystemConfig config;
  const std::string error =
      ParseConfigText("mode = ipp\nnot a config line\n", &config);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  const std::string bad_key = ParseConfigText("\n\nwrong = 1\n", &config);
  EXPECT_NE(bad_key.find("line 3"), std::string::npos);
  EXPECT_NE(bad_key.find("unknown key"), std::string::npos);
}

TEST(ConfigIoTest, RoundTripsThroughText) {
  SystemConfig config;
  config.mode = DeliveryMode::kIpp;
  config.pull_bw = 0.3;
  config.thres_perc = 0.25;
  config.chop_count = 200;
  config.offset = 77;
  config.noise = 0.15;
  config.mc_prefetch = true;
  config.update_rate = 0.05;
  config.update_zipf_theta = 0.5;
  config.mc_policy = cache::PolicyKind::kLfu;
  config.adaptive_pull_bw = true;
  config.seed = 999;

  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  EXPECT_EQ(parsed.mode, config.mode);
  EXPECT_EQ(parsed.pull_bw, config.pull_bw);
  EXPECT_EQ(parsed.thres_perc, config.thres_perc);
  EXPECT_EQ(parsed.chop_count, config.chop_count);
  EXPECT_EQ(parsed.offset, config.offset);
  EXPECT_EQ(parsed.noise, config.noise);
  EXPECT_EQ(parsed.mc_prefetch, config.mc_prefetch);
  EXPECT_EQ(parsed.update_rate, config.update_rate);
  EXPECT_EQ(parsed.update_zipf_theta, config.update_zipf_theta);
  EXPECT_EQ(parsed.mc_policy, config.mc_policy);
  EXPECT_EQ(parsed.adaptive_pull_bw, config.adaptive_pull_bw);
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.disks.sizes, config.disks.sizes);
}

TEST(ConfigIoTest, DefaultConfigRoundTripsValid) {
  SystemConfig config;
  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  EXPECT_TRUE(parsed.Validate().empty());
}

TEST(ConfigIoTest, ObservabilityKeysApplyAndRoundTrip) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("obs_window", "250", &config), "");
  EXPECT_EQ(config.obs_window, 250.0);
  EXPECT_EQ(ApplyConfigOption("flight_recorder",
                              "drop_rate>0.5,queue_depth>9", &config),
            "");
  EXPECT_EQ(config.flight_recorder, "drop_rate>0.5,queue_depth>9");
  // "off" (and empty) disarm an earlier setting.
  EXPECT_EQ(ApplyConfigOption("flight_recorder", "off", &config), "");
  EXPECT_TRUE(config.flight_recorder.empty());

  config.flight_recorder = "p99>120";
  SystemConfig parsed;
  ASSERT_EQ(ParseConfigText(ConfigToText(config), &parsed), "");
  EXPECT_EQ(parsed.obs_window, 250.0);
  EXPECT_EQ(parsed.flight_recorder, "p99>120");
}

TEST(ConfigIoTest, ObservabilityKeysRejectBadValuesWithSpecificErrors) {
  SystemConfig config;
  EXPECT_EQ(ApplyConfigOption("obs_window", "0", &config),
            "obs_window must be positive");
  EXPECT_EQ(ApplyConfigOption("obs_window", "-5", &config),
            "obs_window must be positive");
  EXPECT_EQ(ApplyConfigOption("obs_window", "soon", &config),
            "invalid value for obs_window");
  // The trigger grammar's own diagnostics surface through config parsing.
  EXPECT_EQ(ApplyConfigOption("flight_recorder", "bogus>1", &config),
            "flight_recorder: unknown trigger \"bogus\" "
            "(know drop_rate, p99, queue_depth, shed_rate, loss_rate)");
  EXPECT_EQ(ApplyConfigOption("flight_recorder", "p99=3", &config),
            "flight_recorder: trigger \"p99=3\" is missing '>' "
            "(want name>threshold)");
  // A bad spec never half-applies.
  EXPECT_TRUE(config.flight_recorder.empty());
  // Validate() re-checks a directly poked config.
  config.flight_recorder = "p99>nope";
  EXPECT_EQ(config.Validate(),
            "flight_recorder: trigger \"p99\" has unparsable threshold "
            "\"nope\"");
}

}  // namespace
}  // namespace bdisk::core
