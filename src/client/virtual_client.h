#ifndef BDISK_CLIENT_VIRTUAL_CLIENT_H_
#define BDISK_CLIENT_VIRTUAL_CLIENT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "broadcast/distance_snapshot.h"
#include "broadcast/span_table.h"
#include "client/full_queue_split.h"
#include "client/threshold_filter.h"
#include "server/broadcast_server.h"
#include "server/update_generator.h"
#include "sim/alias_sampler.h"
#include "sim/byte_mask.h"
#include "sim/event_queue.h"
#include "sim/lazy_source.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/access_pattern.h"

namespace bdisk::client {

using broadcast::PageId;

/// Configuration of the virtual client.
struct VirtualClientOptions {
  /// Mean request inter-arrival time = mc_think_time / think_time_ratio
  /// (exponential). ThinkTimeRatio is the paper's server-load axis: the VC
  /// stands in for a population of ~ThinkTimeRatio clients running at the
  /// measured client's rate.
  double mc_think_time = 20.0;
  double think_time_ratio = 10.0;

  /// Fraction of represented clients in steady state (SteadyStatePerc).
  /// Steady-state requests are filtered through a fully warmed cache;
  /// warm-up requests always miss (§3.1).
  double steady_state_perc = 0.95;

  /// Threshold fraction applied to every request the VC submits.
  double thres_perc = 0.0;

  /// Cache size used to derive the warmed-cache contents.
  std::uint32_t cache_size = 100;

  /// Fused (default): arrivals are batched through the simulator's
  /// lazy-source drain — one register-resident draw+classify pass against
  /// a barrier-frozen distance snapshot (the batched arrival spine) —
  /// instead of costing one heap event each. Unfused takes every candidate
  /// arrival of the same two streams as its own heap event; it is only the
  /// reference the fused drain is tested against (core::VcPath). Either
  /// way the trajectory is bit-identical; see DESIGN.md, "The lazy-source
  /// contract" and "The batched arrival spine".
  bool fused = true;
};

/// The Virtual Client (VC, §3.1): a single open-loop process standing in
/// for the whole client population other than the measured client.
///
/// The paper's process: Poisson arrivals at rate λ = ThinkTimeRatio /
/// ThinkTime, each drawing a page from the canonical pattern q and, with
/// probability SteadyStatePerc (σ), coming from a warmed-up client whose
/// cache holds exactly the CacheSize highest-valued pages W (the paper's
/// own steady-state assumption) — a hit there does nothing. Every other
/// arrival is a miss that passes the threshold filter and, if it survives,
/// reaches the backchannel; a steady miss on a page of W re-warms it. The
/// VC never blocks: it models aggregate *load*, so arrivals are independent
/// of service (this is what lets the server saturate and drop requests, as
/// the paper reports).
///
/// Hits change nothing, so the VC draws only the arrivals that can miss
/// (Poisson thinning, exact in distribution; DESIGN.md, "The batched
/// arrival spine"):
///  - stream A, rate λ·Σ_p q_p·(1 − σ·[p∈W]): warm-up accesses and steady
///    accesses outside W, pages drawn from one alias table over those
///    weights. They never change the warm set.
///  - stream B: one clock per warm-set page made cold by an update, due
///    after Exp(λσq_p); it is that page's next steady access, a miss that
///    re-warms it.
///
/// Never blocking is also what makes the VC a valid lazy source: its next
/// arrival time depends only on its own RNG stream, and the state it reads
/// (schedule cursor, cold clocks) changes only at drain barriers.
///
/// While the pull queue is full (and the server judges no faults, and no
/// stream-B clock is pending) stream-A arrivals change nothing but
/// counters, so the VC stops drawing them one by one: it collapses, and
/// each barrier closes the segment since the last one with a Poisson count
/// split into filtered, coalesced and dropped by the class masses at the
/// frozen (cursor, queue). The first pop ends the collapse (DESIGN.md,
/// "Full-queue collapse").
class VirtualClient : public sim::LazySource,
                      public sim::EventHandler,
                      public server::InvalidationListener,
                      public server::PullQueueListener {
 public:
  /// `pattern` is the canonical (server-side) access pattern; `warm_pages`
  /// the ideal cache contents under the active value metric (PIX for
  /// push-based configurations, P for Pure-Pull).
  VirtualClient(sim::Simulator* simulator, server::BroadcastServer* server,
                const workload::AccessPattern& pattern,
                const std::vector<PageId>& warm_pages,
                const VirtualClientOptions& options, sim::Rng rng);

  ~VirtualClient() override;

  VirtualClient(const VirtualClient&) = delete;
  VirtualClient& operator=(const VirtualClient&) = delete;

  /// Begins generating requests (first arrival after one think interval).
  void Start();

  /// Volatile-data extension: an update knocks the page out of the
  /// represented warm caches; the next steady-state access to it misses,
  /// reaches the server, and re-warms it (the population re-fetches).
  /// A barrier: arrivals up to `now` still see the page as warm. A warm
  /// page of W gets a stream-B clock; an already-cold page keeps its own.
  void OnInvalidate(PageId page, sim::SimTime now) override;

  /// LazySource: the earlier of the next stream-A arrival and the earliest
  /// cold clock (kTimeNever before Start() and when neither is pending).
  /// While collapsed, the first instant after the last closed segment.
  sim::SimTime NextArrivalTime() const override {
    return cold_.empty() ? next_arrival_
                         : std::min(next_arrival_, cold_.front().due);
  }

  /// LazySource: processes every arrival with timestamp <= `horizon`.
  /// Returns the drawn ones; collapsed arrivals are counted, not drawn.
  std::uint64_t CatchUp(sim::SimTime horizon) override;

  /// PullQueueListener (attached at the first collapse): keeps the
  /// collapse's queued mass; a pop ends the collapse (the queue has room
  /// again).
  void OnQueued(PageId page) override { split_.OnQueued(page); }
  void OnDequeued(PageId page) override;

  /// Lifetime counters. RequestsGenerated counts the candidate arrivals
  /// of both streams (drawn, or counted while collapsed), each of which is
  /// either filtered or submitted; hits are never drawn.
  std::uint64_t RequestsGenerated() const { return generated_; }
  std::uint64_t FilteredByThreshold() const { return filtered_; }
  std::uint64_t RequestsSubmitted() const { return submitted_; }

 private:
  /// A stream-B clock: the next steady access to a cold page of W.
  struct ColdClock {
    sim::SimTime due;
    PageId page;
  };

  /// Heap order for cold_ (a min-heap on due time): the page breaks exact
  /// ties so the order never depends on insertion history.
  static bool ClockAfter(const ColdClock& a, const ColdClock& b) {
    return a.due != b.due ? a.due > b.due : a.page > b.page;
  }

  /// EventHandler: one unfused heap wakeup (the reference path), which
  /// processes the single candidate at NextArrivalTime().
  void OnEvent() override;

  /// Reference path: (re)arms the one wakeup at NextArrivalTime().
  void ScheduleWakeup();

  /// Removes the earliest cold clock, re-warms its page, and returns it.
  PageId FireColdClock();

  /// Sends a candidate arrival on (`pull`) or counts it as filtered.
  void Route(PageId page, bool pull, sim::SimTime at);

  /// The drain body behind CatchUp: the batched spine, bit-identical to
  /// OnEvent one candidate at a time (see DESIGN.md). Stops at an
  /// arrival that enters the collapse.
  std::uint64_t DrainSpine(sim::SimTime horizon);

  /// True when the next arrivals may be counted instead of drawn: stream
  /// A exists, no cold clock is pending, and the queue is full and inert.
  bool CanCollapse() const;

  /// Enters the collapse after the arrival at `at` (CanCollapse() holds);
  /// the pending stream-A draw is discarded.
  void EnterCollapse(sim::SimTime at);

  /// Closes the collapsed segment (segment_start_, horizon]: draws its
  /// filtered / coalesced / dropped counts and books them (or, with a
  /// request observer attached, expands them into records). Returns the
  /// arrival count.
  std::uint64_t CloseSegment(sim::SimTime horizon);

  /// Observer form of CloseSegment's booking: per-arrival records with
  /// times and pages from record_rng_, routed like drawn arrivals.
  void ExpandSegment(sim::SimTime horizon, std::uint64_t filtered,
                     std::uint64_t coalesced, std::uint64_t dropped);

  /// Leaves the collapse at `now`: the next stream-A arrival is
  /// now + Exp (memoryless).
  void EndCollapse(sim::SimTime now);

  sim::Simulator* simulator_;
  server::BroadcastServer* server_;
  // Stream A: the page table over q_p·(1 − σ·[p∈W]) and its mean
  // inter-arrival time; empty when those weights are all zero (A never
  // fires).
  std::optional<sim::AliasSampler> miss_pages_;
  double miss_mean_ = 0.0;
  // Stream B: per page, the mean time to its next steady access
  // 1/(λσq_p); 0 for pages outside W or without steady accesses.
  std::vector<double> rewarm_mean_;
  std::vector<ColdClock> cold_;  // Min-heap on (due, page).
  VirtualClientOptions options_;
  ThresholdFilter filter_;
  sim::ByteMask warm_cached_;  // Pages of W with a valid warm copy.
  sim::Rng rng_;

  sim::SimTime next_arrival_ = sim::kTimeNever;   // Next stream-A arrival.
  bool registered_ = false;  // Fused path; the reference while collapsed.
  sim::EventId wakeup_ = sim::kInvalidEventId;    // Unfused path.

  // Spine state (fused path only): the barrier-frozen distance snapshot
  // and the optional whole-cycle threshold-decision table (null → fall
  // back to the snapshot's memoized search).
  broadcast::DistanceSnapshot snapshot_;
  std::unique_ptr<const broadcast::CycleSpanTable> span_table_;

  // Full-queue collapse. segment_start_ is the last closed time; the
  // masses are tracked by split_ (built at the first collapse). Stream A's
  // rate and e^{-rate} (a whole slot's Poisson mean and its inversion
  // start) are cached. record_rng_ only feeds observer records, so
  // attaching an observer never moves rng_.
  bool collapsed_ = false;
  sim::SimTime segment_start_ = 0.0;
  FullQueueSplit split_;
  double miss_rate_ = 0.0;
  double exp_neg_miss_rate_ = 1.0;
  sim::Rng record_rng_;

  std::uint64_t generated_ = 0;
  std::uint64_t filtered_ = 0;
  std::uint64_t submitted_ = 0;
};

}  // namespace bdisk::client

#endif  // BDISK_CLIENT_VIRTUAL_CLIENT_H_
