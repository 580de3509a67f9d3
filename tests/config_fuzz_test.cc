// Seeded mutation fuzzing of the config text parser, which reads files and
// --set values from outside the process. `--print-config` dumps of several
// configs are mutated by byte flips, truncations, insertions and byte
// swaps under fixed seeds, and every result must satisfy:
//   - ParseConfigText never crashes (the sanitizer legs run this suite);
//   - every rejection names its line and says what is wrong;
//   - every accepted config that validates prints and re-parses to the
//     same config, field for field, and prints to the same text again.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/config_io.h"
#include "sim/rng.h"

namespace bdisk::core {
namespace {

// Print-config dumps covering every key shape: defaults, a truncated
// Pure-Pull config with a policy, an update stream and observability
// keys, and an IPP config with a full fault plan.
std::vector<std::string> Seeds() {
  std::vector<std::string> seeds;
  SystemConfig config;
  seeds.push_back(ConfigToText(config));

  config.mode = DeliveryMode::kPurePull;
  config.mc_policy = cache::PolicyKind::kLru;
  config.update_rate = 0.25;
  config.update_zipf_theta = 0.5;
  config.obs_window = 250.0;
  config.flight_recorder = "drop_rate>0.5";
  config.flight_recorder_max_dumps = 3;
  config.frames = "-";
  config.seed = 18446744073709551615ULL;
  seeds.push_back(ConfigToText(config));

  config = SystemConfig{};
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.offset = 5;
  config.chop_count = 20;
  config.chunking = broadcast::ChunkingMode::kPad;
  config.thres_perc = 0.35;
  config.think_time_ratio = 1.0 / 3.0;
  config.fault.slot_loss = 0.05;
  config.fault.request_delay = 2.5;
  config.fault.outage_start = 100.5;
  config.fault.outage_duration = 30.25;
  config.fault.outage_period = 400.75;
  config.fault.brownout = true;
  config.fault.mc_timeout = 50.0;
  config.fault.shed_hi = 0.6;
  config.fault.shed_lo = 0.3;
  config.fault.degraded_pull_bw = 0.5;
  seeds.push_back(ConfigToText(config));
  return seeds;
}

// Bytes that steer mutations toward the grammar's edges: delimiters,
// comment and list separators, digits, signs and exponents, the letters
// of nan/inf/true, and bytes no config should carry.
constexpr char kInteresting[] = {'=',  '#',  ',',  '\n', ' ',  '\t', '\r',
                                 '-',  '+',  '.',  'e',  'x',  '0',  '1',
                                 '9',  'n',  'a',  'i',  'f',  't',  '\0',
                                 '\x7f', '\x80', '\xff'};

char RandomByte(sim::Rng& rng) {
  if (rng.NextBounded(2) == 0) {
    return kInteresting[rng.NextBounded(sizeof(kInteresting))];
  }
  return static_cast<char>(rng.NextBounded(256));
}

// Applies one random mutation to `text`.
void Mutate(sim::Rng& rng, std::string* text) {
  switch (rng.NextBounded(4)) {
    case 0: {  // Byte flip: one random bit, or a whole replacement byte.
      if (text->empty()) break;
      const std::size_t pos = rng.NextBounded(text->size());
      if (rng.NextBounded(2) == 0) {
        (*text)[pos] = static_cast<char>((*text)[pos] ^
                                         (1 << rng.NextBounded(8)));
      } else {
        (*text)[pos] = RandomByte(rng);
      }
      break;
    }
    case 1:  // Truncation.
      text->resize(rng.NextBounded(text->size() + 1));
      break;
    case 2:  // Insertion.
      text->insert(text->begin() + static_cast<std::ptrdiff_t>(
                                       rng.NextBounded(text->size() + 1)),
                   RandomByte(rng));
      break;
    default: {  // Byte swap.
      if (text->size() < 2) break;
      std::swap((*text)[rng.NextBounded(text->size())],
                (*text)[rng.NextBounded(text->size())]);
      break;
    }
  }
}

// The text with non-printable bytes escaped, for failure messages.
std::string Printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n";
    } else if (byte >= 0x20 && byte < 0x7f) {
      out.push_back(c);
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    }
  }
  return out;
}

// Every field a config key sets.
void ExpectSameConfig(const SystemConfig& a, const SystemConfig& b,
                      std::string_view text) {
  SCOPED_TRACE(Printable(text));
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.server_db_size, b.server_db_size);
  EXPECT_EQ(a.disks.sizes, b.disks.sizes);
  EXPECT_EQ(a.disks.rel_freqs, b.disks.rel_freqs);
  EXPECT_EQ(a.server_queue_size, b.server_queue_size);
  EXPECT_EQ(a.pull_bw, b.pull_bw);
  EXPECT_EQ(a.thres_perc, b.thres_perc);
  EXPECT_EQ(a.chop_count, b.chop_count);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_EQ(a.chunking, b.chunking);
  EXPECT_EQ(a.zipf_theta, b.zipf_theta);
  EXPECT_EQ(a.noise, b.noise);
  EXPECT_EQ(a.cache_size, b.cache_size);
  EXPECT_EQ(a.mc_think_time, b.mc_think_time);
  EXPECT_EQ(a.think_time_ratio, b.think_time_ratio);
  EXPECT_EQ(a.steady_state_perc, b.steady_state_perc);
  EXPECT_EQ(a.vc_enabled, b.vc_enabled);
  EXPECT_EQ(a.mc_retry_interval, b.mc_retry_interval);
  EXPECT_EQ(a.mc_policy, b.mc_policy);
  EXPECT_EQ(a.update_rate, b.update_rate);
  EXPECT_EQ(a.update_zipf_theta, b.update_zipf_theta);
  EXPECT_EQ(a.mc_prefetch, b.mc_prefetch);
  EXPECT_EQ(a.obs_window, b.obs_window);
  EXPECT_EQ(a.flight_recorder, b.flight_recorder);
  EXPECT_EQ(a.flight_recorder_max_dumps, b.flight_recorder_max_dumps);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_TRUE(a.fault == b.fault);
  EXPECT_EQ(a.adaptive_pull_bw, b.adaptive_pull_bw);
  EXPECT_EQ(a.adaptive_threshold, b.adaptive_threshold);
  EXPECT_EQ(a.seed, b.seed);
}

struct Outcome {
  bool accepted = false;
  bool valid = false;
};

// Checks the properties on one config text.
Outcome CheckText(const std::string& text) {
  Outcome outcome;
  SystemConfig config;
  const std::string error = ParseConfigText(text, &config);
  if (!error.empty()) {
    // "line N: what" — the line and a non-empty reason.
    const std::size_t colon = error.find(": ");
    EXPECT_EQ(error.rfind("line ", 0), 0U) << error;
    EXPECT_NE(colon, std::string::npos) << error;
    EXPECT_LT(colon + 2, error.size())
        << "empty reason for \"" << Printable(text) << "\"";
    return outcome;
  }
  outcome.accepted = true;
  if (!config.Validate().empty()) return outcome;
  outcome.valid = true;
  const std::string printed = ConfigToText(config);
  SystemConfig reparsed;
  EXPECT_EQ(ParseConfigText(printed, &reparsed), "") << Printable(printed);
  ExpectSameConfig(config, reparsed, text);
  EXPECT_EQ(ConfigToText(reparsed), printed);
  return outcome;
}

TEST(ConfigFuzzTest, SeedsRoundTrip) {
  for (const std::string& seed : Seeds()) {
    const Outcome outcome = CheckText(seed);
    EXPECT_TRUE(outcome.valid) << seed;
  }
}

TEST(ConfigFuzzTest, MutatedDumpsNeverCrashAndRoundTripWhenAccepted) {
  constexpr int kRounds = 4000;
  std::uint64_t accepted = 0;
  std::uint64_t valid = 0;
  std::uint64_t rejected = 0;
  sim::Rng rng(0xC0F1C5EEDULL);
  for (const std::string& seed : Seeds()) {
    for (int round = 0; round < kRounds; ++round) {
      std::string text = seed;
      const std::uint64_t mutations = 1 + rng.NextBounded(3);
      for (std::uint64_t m = 0; m < mutations; ++m) Mutate(rng, &text);
      const Outcome outcome = CheckText(text);
      accepted += outcome.accepted;
      valid += outcome.valid;
      rejected += !outcome.accepted;
      if (HasFailure()) return;  // One clear report, not thousands.
    }
  }
  // The corpus reaches all three outcomes: rejected text, text that parses
  // but fails Validate, and valid configs that must round-trip.
  EXPECT_GT(rejected, 100U);
  EXPECT_GT(accepted - valid, 10U);
  EXPECT_GT(valid, 100U);
}

// Each number key on its own: values near the type's edges, signs,
// non-finite spellings and junk must round-trip or be refused by name.
TEST(ConfigFuzzTest, NumberKeysAcceptOnlyExactValues) {
  const char* const kKeys[] = {"server_db_size", "server_queue_size",
                               "cache_size",     "chop_count",
                               "offset",         "seed",
                               "pull_bw",        "think_time_ratio",
                               "update_rate",    "fault.request_delay",
                               "fault.mc_max_retries"};
  const char* const kValues[] = {
      "0",         "1",          "4294967295", "4294967296", "-1",
      "-0",        "+1",         "1e3",        "0.5",        "1e999",
      "nan",       "inf",        "-inf",       "0x10",       "18446744073709551615",
      "18446744073709551616",    " 7 ",        "7 7",        "",
      "1,2"};
  for (const char* key : kKeys) {
    for (const char* value : kValues) {
      SystemConfig config;
      const std::string error = ApplyConfigOption(key, value, &config);
      if (!error.empty()) {
        // "invalid value for KEY", or a range check naming KEY.
        EXPECT_NE(error.find(key), std::string::npos) << key << "=" << value;
        continue;
      }
      CheckText(std::string(key) + " = " + value + "\n");
    }
  }
}

}  // namespace
}  // namespace bdisk::core
