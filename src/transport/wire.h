#ifndef BDISK_TRANSPORT_WIRE_H_
#define BDISK_TRANSPORT_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "broadcast/page.h"
#include "server/broadcast_server.h"

namespace bdisk::transport::wire {

using broadcast::PageId;

/// `bdisk-wire-v1`: one text line per datagram, space-separated fields,
/// "bdw1" magic first. Human-readable on purpose (socat / od debugging of
/// a live socket beats a binary dump), and comfortably inside one datagram
/// at every size we send.
///
///   client -> server:
///     bdw1 HELLO <client_id>            join / reconnect (source addr is
///                                       the client's bound reply path)
///     bdw1 PULL <client_id> <page>      one pull request
///     bdw1 PING <client_id>             heartbeat (any rx refreshes it)
///     bdw1 BYE <client_id>              orderly departure; server replies
///                                       STATS then forgets the peer
///   server -> client:
///     bdw1 WELCOME <db_size> <cycle_len> <slot_us>
///     bdw1 SLOT <seq> <page|-> <P|Q|I> <sim_time>
///     bdw1 STATS <pulls_rx> <slots_tx_epoch> <drop_backpressure>
///          <drop_dead_peer> <drop_fault> <pulls_fault_dropped> <reconnects>
///     bdw1 FIN <reason>                 graceful server drain
///
/// Reconciliation leans on AF_UNIX SOCK_DGRAM FIFO ordering per
/// sender-socket/receiver pair: STATS is sent after every prior slot
/// datagram to that peer, and BYE arrives after every prior PULL, so the
/// counter handshake is exact, not approximate (see DatagramServerTransport
/// for the epoch accounting across client crashes).
inline constexpr char kMagic[] = "bdw1";

enum class MsgType : std::uint8_t {
  kHello,
  kWelcome,
  kPull,
  kPing,
  kBye,
  kSlot,
  kStats,
  kFin,
};

/// Per-peer counters carried by STATS (the server's view of one client,
/// used by `bdisk_load --reconcile` for the exact drop-accounting check).
struct PeerStats {
  std::uint64_t pulls_rx = 0;           // PULLs received (pre fault judge).
  std::uint64_t slots_tx_epoch = 0;     // Slot datagrams delivered to the
                                        // kernel since the last HELLO.
  std::uint64_t drop_backpressure = 0;  // Slot sends refused EAGAIN/ENOBUFS.
  std::uint64_t drop_dead_peer = 0;     // Slot sends refused: peer gone.
  std::uint64_t drop_fault = 0;         // Slots withheld by fault injection.
  std::uint64_t pulls_fault_dropped = 0;  // PULLs judged lost on the wire.
  std::uint64_t reconnects = 0;         // HELLOs beyond the first.
};

/// One parsed datagram. Only the fields of the parsed type are meaningful.
struct Message {
  MsgType type = MsgType::kPing;
  std::string client_id;            // HELLO / PULL / PING / BYE.
  PageId page = broadcast::kNoPage; // PULL / SLOT ("-" encodes kNoPage).
  std::uint64_t seq = 0;            // SLOT.
  server::SlotKind kind = server::SlotKind::kIdle;  // SLOT.
  double sim_time = 0.0;            // SLOT.
  std::uint32_t db_size = 0;        // WELCOME.
  std::uint32_t cycle_len = 0;      // WELCOME.
  std::uint32_t slot_us = 0;        // WELCOME.
  PeerStats stats;                  // STATS.
  std::string reason;               // FIN.
};

/// True when `id` is usable on the wire: nonempty, at most 64 bytes, and
/// free of whitespace/control characters (fields are space-delimited).
bool ValidClientId(std::string_view id);

/// Formatters overwrite `*out` with one complete datagram payload (no
/// trailing newline). The scratch-string style keeps the per-slot fan-out
/// path allocation-free in steady state.
void FormatHello(const std::string& client_id, std::string* out);
void FormatWelcome(std::uint32_t db_size, std::uint32_t cycle_len,
                   std::uint32_t slot_us, std::string* out);
void FormatPull(const std::string& client_id, PageId page, std::string* out);
void FormatPing(const std::string& client_id, std::string* out);
void FormatBye(const std::string& client_id, std::string* out);
void FormatSlot(std::uint64_t seq, PageId page, server::SlotKind kind,
                double sim_time, std::string* out);
void FormatStats(const PeerStats& stats, std::string* out);
void FormatFin(const std::string& reason, std::string* out);

/// Parses one datagram payload. Returns false (and sets `error`) on
/// malformed input: wrong magic, unknown verb, bad field count, or
/// unparsable numbers (a non-finite slot time included). A false return
/// leaves `*out` unspecified.
bool ParseMessage(std::string_view datagram, Message* out, std::string* error);

}  // namespace bdisk::transport::wire

#endif  // BDISK_TRANSPORT_WIRE_H_
