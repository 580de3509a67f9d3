// Seeded mutation fuzzing of the bdisk-wire-v1 parser, the one parser that
// takes bytes straight off a socket. Every verb's formatted text is mutated
// by byte flips, truncations, insertions and field swaps under fixed seeds,
// and every result must satisfy three properties:
//   - ParseMessage never crashes (the sanitizer legs run this suite);
//   - every rejection fills `error`;
//   - every accepted message re-formats and re-parses to the same Message.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "transport/wire.h"

namespace bdisk::transport::wire {
namespace {

// One formatted datagram per verb and field shape.
std::vector<std::string> Seeds() {
  std::vector<std::string> seeds;
  std::string out;
  FormatHello("mc1", &out);
  seeds.push_back(out);
  FormatPull("load_7", 42, &out);
  seeds.push_back(out);
  FormatPing("mc1", &out);
  seeds.push_back(out);
  FormatBye("client-with-a-longer-id", &out);
  seeds.push_back(out);
  FormatWelcome(1000, 1600, 200, &out);
  seeds.push_back(out);
  FormatSlot(7, 13, server::SlotKind::kPush, 8.0, &out);
  seeds.push_back(out);
  FormatSlot(123456789, 999, server::SlotKind::kPull, 1234.5, &out);
  seeds.push_back(out);
  FormatSlot(8, broadcast::kNoPage, server::SlotKind::kIdle, 9.0, &out);
  seeds.push_back(out);
  PeerStats stats;
  stats.pulls_rx = 11;
  stats.slots_tx_epoch = 2222;
  stats.drop_backpressure = 3;
  stats.drop_dead_peer = 0;
  stats.drop_fault = 5;
  stats.pulls_fault_dropped = 6;
  stats.reconnects = 1;
  FormatStats(stats, &out);
  seeds.push_back(out);
  FormatFin("evicted", &out);
  seeds.push_back(out);
  return seeds;
}

// Bytes that steer mutations toward the grammar's edges: delimiters,
// digits, signs and exponents, verb letters, and bytes no datagram should
// carry.
constexpr char kInteresting[] = {' ',  '-',  '+',    '.',    'e',  'E',
                                 '0',  '1',  '9',    'P',    'Q',  'I',
                                 'x',  'n',  '\t',   '\n',   '\0', '\x7f',
                                 '\x80', '\xff'};

char RandomByte(sim::Rng& rng) {
  if (rng.NextBounded(2) == 0) {
    return kInteresting[rng.NextBounded(sizeof(kInteresting))];
  }
  return static_cast<char>(rng.NextBounded(256));
}

std::vector<std::string> SplitOnSpace(const std::string& text) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t space = text.find(' ', start);
    fields.push_back(text.substr(start, space - start));
    if (space == std::string::npos) return fields;
    start = space + 1;
  }
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
    default: {  // Field swap.
      std::vector<std::string> fields = SplitOnSpace(*text);
      if (fields.size() < 2) break;
      const std::size_t a = rng.NextBounded(fields.size());
      const std::size_t b = rng.NextBounded(fields.size());
      std::swap(fields[a], fields[b]);
      text->clear();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) text->push_back(' ');
        text->append(fields[i]);
      }
      break;
    }
  }
}

void Format(const Message& msg, std::string* out) {
  switch (msg.type) {
    case MsgType::kHello:
      FormatHello(msg.client_id, out);
      return;
    case MsgType::kWelcome:
      FormatWelcome(msg.db_size, msg.cycle_len, msg.slot_us, out);
      return;
    case MsgType::kPull:
      FormatPull(msg.client_id, msg.page, out);
      return;
    case MsgType::kPing:
      FormatPing(msg.client_id, out);
      return;
    case MsgType::kBye:
      FormatBye(msg.client_id, out);
      return;
    case MsgType::kSlot:
      FormatSlot(msg.seq, msg.page, msg.kind, msg.sim_time, out);
      return;
    case MsgType::kStats:
      FormatStats(msg.stats, out);
      return;
    case MsgType::kFin:
      FormatFin(msg.reason, out);
      return;
  }
}

// The datagram with non-printable bytes escaped, for failure messages.
std::string Printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
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

void ExpectSameMessage(const Message& a, const Message& b,
                       std::string_view text) {
  SCOPED_TRACE(Printable(text));
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.page, b.page);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.db_size, b.db_size);
  EXPECT_EQ(a.cycle_len, b.cycle_len);
  EXPECT_EQ(a.slot_us, b.slot_us);
  EXPECT_EQ(a.stats.pulls_rx, b.stats.pulls_rx);
  EXPECT_EQ(a.stats.slots_tx_epoch, b.stats.slots_tx_epoch);
  EXPECT_EQ(a.stats.drop_backpressure, b.stats.drop_backpressure);
  EXPECT_EQ(a.stats.drop_dead_peer, b.stats.drop_dead_peer);
  EXPECT_EQ(a.stats.drop_fault, b.stats.drop_fault);
  EXPECT_EQ(a.stats.pulls_fault_dropped, b.stats.pulls_fault_dropped);
  EXPECT_EQ(a.stats.reconnects, b.stats.reconnects);
  EXPECT_EQ(a.reason, b.reason);
}

// Checks the three properties on one datagram; returns whether it parsed.
bool CheckDatagram(std::string_view text) {
  Message msg;
  std::string error;
  if (!ParseMessage(text, &msg, &error)) {
    EXPECT_FALSE(error.empty()) << "rejection without an error for \""
                                << Printable(text) << "\"";
    return false;
  }
  std::string reformatted;
  Format(msg, &reformatted);
  Message again;
  std::string again_error;
  EXPECT_TRUE(ParseMessage(reformatted, &again, &again_error))
      << "\"" << Printable(text) << "\" re-formatted to \""
      << Printable(reformatted) << "\", which fails: " << again_error;
  ExpectSameMessage(msg, again, text);
  return true;
}

TEST(WireFuzzTest, UnmutatedSeedsParseAndRoundTrip) {
  for (const std::string& seed : Seeds()) {
    EXPECT_TRUE(CheckDatagram(seed)) << seed;
  }
}

TEST(WireFuzzTest, MutatedDatagramsKeepTheParserProperties) {
  const std::vector<std::string> seeds = Seeds();
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (const std::uint64_t fuzz_seed : {1u, 2u, 3u, 20261017u}) {
    sim::Rng rng(fuzz_seed);
    for (int i = 0; i < 5000; ++i) {
      std::string text = seeds[rng.NextBounded(seeds.size())];
      const std::uint64_t mutations = 1 + rng.NextBounded(3);
      for (std::uint64_t m = 0; m < mutations; ++m) Mutate(rng, &text);
      if (CheckDatagram(text)) {
        ++accepted;
      } else {
        ++rejected;
      }
      if (testing::Test::HasFailure()) return;
    }
  }
  // Both outcomes are exercised: mutations that keep a datagram well
  // formed (a digit for a digit) and mutations that break it.
  EXPECT_GT(accepted, 1000U);
  EXPECT_GT(rejected, 1000U);
}

TEST(WireFuzzTest, NonFiniteSlotTimesAreRejected) {
  for (const char* text :
       {"bdw1 SLOT 1 2 P nan", "bdw1 SLOT 1 2 P inf", "bdw1 SLOT 1 2 P -inf",
        "bdw1 SLOT 1 2 P 1e999"}) {
    Message msg;
    std::string error;
    EXPECT_FALSE(ParseMessage(text, &msg, &error)) << text;
    EXPECT_EQ(error, "bad slot time") << text;
  }
}

}  // namespace
}  // namespace bdisk::transport::wire
