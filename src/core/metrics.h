#ifndef BDISK_CORE_METRICS_H_
#define BDISK_CORE_METRICS_H_

#include <cstdint>
#include <vector>

#include "sim/stats.h"
#include "sim/types.h"

namespace bdisk::core {

/// One point on a warm-up trajectory: the first simulation time at which
/// the cache held `fraction` of its ideal contents.
struct WarmupPoint {
  double fraction;
  sim::SimTime time;  // kTimeNever when never reached within the run.
};

/// Runtime profile of the simulation kernel over one run. All sources are
/// always-on (plain counter bumps in the event loop), so these fields are
/// populated whether or not a metrics registry is attached.
struct KernelProfile {
  /// Events dispatched by the simulator.
  std::uint64_t events_executed = 0;
  /// Deepest the event heap ever got (periodic timers bypass the heap, so
  /// this measures the *aperiodic* load: client wakeups, controllers).
  std::uint64_t heap_high_water = 0;
  /// Periodic-timer re-arms served by the heapless fast path.
  std::uint64_t periodic_rearms = 0;
  /// Lazy-source arrivals processed in batch (each would have been one
  /// heap event without fusion), and barrier drains that found work.
  /// events_executed + lazy_arrivals_fused is invariant under fusion.
  std::uint64_t lazy_arrivals_fused = 0;
  std::uint64_t lazy_drains = 0;
  /// Lazily-cancelled event entries physically retired, each exactly once
  /// (see sim::EventQueue::StaleDiscarded); after a full drain this equals
  /// the number of effective cancellations.
  std::uint64_t stale_discarded = 0;
  /// Batched periodic spans the run loop entered (slot occurrences fired
  /// back-to-back without a queue pop each).
  std::uint64_t periodic_spans = 0;
  /// Host wall-clock seconds spent inside RunUntil.
  double wall_seconds = 0.0;
  /// Throughput rates; 0 when wall_seconds is too small to measure.
  double events_per_wall_second = 0.0;
  double sim_units_per_wall_second = 0.0;
};

/// Everything measured in one simulation run.
struct RunResult {
  /// Mean response time over measured MC accesses, in broadcast units —
  /// the paper's primary metric. Cache hits count as 0 and are included.
  double mean_response = 0.0;
  /// Full response-time statistics for the measured window.
  sim::RunningStats response_stats;

  /// Response-time distribution over the same measured window, from the
  /// MC's always-on bucketed histogram. Percentiles interpolate within the
  /// containing bucket (error bounded by one bucket width ≈ DbSize/256
  /// broadcast units); the max is exact. All 0 when nothing was measured.
  double response_p50 = 0.0;
  double response_p90 = 0.0;
  double response_p95 = 0.0;
  double response_p99 = 0.0;
  double response_max = 0.0;

  /// MC counters over the entire run (warm-up + measurement).
  std::uint64_t mc_accesses = 0;
  double mc_hit_rate = 0.0;
  std::uint64_t mc_pulls_sent = 0;
  std::uint64_t mc_retries_sent = 0;
  std::uint64_t mc_prefetches = 0;
  std::uint64_t mc_invalidations = 0;
  std::uint64_t mc_cache_evictions = 0;
  std::uint64_t mc_cache_removals = 0;

  /// VC counters over the entire run (all 0 without a virtual client).
  /// Generated counts drawn candidate arrivals (= filtered + submitted);
  /// the VC never draws its warm-cache hits.
  std::uint64_t vc_requests_generated = 0;
  std::uint64_t vc_filtered = 0;
  std::uint64_t vc_submitted = 0;

  /// Volatile-data extension: server-side updates generated.
  std::uint64_t updates_generated = 0;

  /// Server request-queue accounting over the entire run.
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_accepted = 0;
  std::uint64_t requests_coalesced = 0;
  std::uint64_t requests_dropped = 0;
  /// Fault-layer drops, accounted separately from capacity drops
  /// (requests_dropped): shed by degraded-mode admission control, and
  /// discarded during an outage window. Both 0 without a FaultPlan.
  std::uint64_t requests_shed = 0;
  std::uint64_t requests_dropped_outage = 0;
  /// Fraction of submitted pull requests discarded for any reason
  /// (capacity, shed, or outage).
  double drop_rate = 0.0;
  /// Deepest the pull queue ever got (distinct queued pages).
  std::uint32_t queue_depth_high_water = 0;

  /// Fault-injection accounting (all 0 without a FaultPlan; see
  /// ROBUSTNESS.md). Injected faults:
  std::uint64_t fault_slots_lost = 0;
  std::uint64_t fault_slots_corrupted = 0;
  std::uint64_t fault_requests_lost = 0;
  std::uint64_t fault_requests_delayed = 0;
  std::uint64_t outage_slots = 0;
  std::uint64_t outages_started = 0;
  /// Server degraded-mode transitions:
  std::uint64_t degraded_enters = 0;
  std::uint64_t degraded_exits = 0;
  /// MC robustness engine:
  std::uint64_t mc_timeouts_fired = 0;
  std::uint64_t mc_abandoned = 0;
  std::uint64_t mc_fallbacks = 0;
  std::uint64_t mc_probes_sent = 0;
  std::uint64_t mc_backchannel_deaths = 0;
  std::uint64_t mc_backchannel_recoveries = 0;

  /// Frontchannel slot usage fractions.
  double push_slot_frac = 0.0;
  double pull_slot_frac = 0.0;
  double idle_slot_frac = 0.0;

  /// Push-program shape.
  std::uint32_t major_cycle_len = 0;

  /// Warm-up trajectory (populated by warm-up runs).
  std::vector<WarmupPoint> warmup;

  /// Kernel runtime profile (event counts, heap depth, wall-clock rates).
  KernelProfile kernel;

  /// Bookkeeping.
  sim::SimTime sim_time_end = 0.0;
  bool converged = false;  // Batch-means declared stability (steady-state
                           // runs) / target fraction reached (warm-up runs).
};

}  // namespace bdisk::core

#endif  // BDISK_CORE_METRICS_H_
