#ifndef BDISK_FAULT_FAULT_PLAN_H_
#define BDISK_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>

namespace bdisk::fault {

/// Deterministic fault-injection and robustness plan.
///
/// The paper's model (and the seed reproduction) assumes a perfectly
/// reliable broadcast channel and backchannel; the only failure it studies
/// is pull-queue overflow. A FaultPlan lifts that assumption: it describes
/// which faults to inject (channel loss/corruption, backchannel loss and
/// delay, timed server outages) and which robustness mechanisms to engage
/// against them (client retry/timeout/backoff, server degraded-mode load
/// shedding).
///
/// Everything here is plain configuration: the plan is inert data, the
/// decisions are made by a FaultInjector (its own RNG stream) and by the
/// server/client robustness code. The all-zero default plan is the
/// contract that keeps baselines honest: with every knob at its default,
/// no fault code consumes randomness, schedules events, or records trace
/// records, so the simulated trajectory is bit-identical to a build that
/// predates the fault layer (golden pins and the committed observability
/// baseline both hold).
struct FaultPlan {
  // --- Channel faults (decided by the injector's own RNG stream) ---
  /// Probability that a broadcast slot's page is lost in transit: the slot
  /// is spent but no client receives the page. In [0,1].
  double slot_loss = 0.0;
  /// Probability that a slot's page arrives corrupted; clients detect the
  /// damage (checksum) and discard it, so the effect matches loss but is
  /// accounted separately. In [0,1].
  double slot_corruption = 0.0;
  /// Probability that a backchannel pull request is lost before reaching
  /// the server (applies to every submitting client). In [0,1].
  double request_loss = 0.0;
  /// Mean extra backchannel latency in broadcast units, exponentially
  /// distributed per request; 0 disables delay. Delayed requests reach the
  /// pull queue at submit time + delay, through the server's delay line
  /// (drained at lazy-source barriers, so the VC stays on its spine).
  double request_delay = 0.0;

  // --- Timed server outage / brownout windows (no randomness) ---
  /// Simulation time at which the first outage window opens.
  double outage_start = 0.0;
  /// Width of each outage window in broadcast units; 0 disables outages.
  double outage_duration = 0.0;
  /// Distance between successive outage starts; 0 means a single one-shot
  /// window. Must exceed outage_duration when repeating.
  double outage_period = 0.0;
  /// Brownout instead of blackout: during a window the server keeps
  /// pushing the schedule but suspends pull service and sheds arriving
  /// requests. A blackout (false) idles every slot and drops every
  /// arriving request.
  bool brownout = false;

  // --- Client robustness (measured client) ---
  /// Per-request timeout in broadcast units before the first retry; 0
  /// picks an automatic default (one major cycle, or ServerDBSize slots
  /// for Pure-Pull). Engaged for every pull the measured client sends
  /// whenever the plan is Enabled().
  double mc_timeout = 0.0;
  /// Bounded retries per request after the initial pull.
  std::uint32_t mc_max_retries = 3;
  /// Exponential backoff multiplier applied to the timeout per retry.
  double mc_backoff = 2.0;
  /// Upper bound on the backed-off timeout; 0 picks 8x the base timeout.
  double mc_backoff_cap = 0.0;
  /// Deterministic jitter: each armed timeout is stretched by a uniform
  /// draw in [0, mc_jitter * timeout) from the client's dedicated fault
  /// RNG stream. In [0,1].
  double mc_jitter = 0.1;
  /// Consecutive fully-failed requests (every retry timed out) after which
  /// the client declares the backchannel dead and falls back to waiting on
  /// the broadcast; 0 never declares it dead.
  std::uint32_t mc_dead_threshold = 5;
  /// While the backchannel is declared dead, at most one probe pull per
  /// this many broadcast units is sent for scheduled pages; 0 picks one
  /// major cycle. Unscheduled pages always probe (pull is their only
  /// path). Snooping any pull-slot delivery also revives the backchannel.
  double mc_probe_interval = 0.0;

  // --- Server degraded mode (admission control + push fallback) ---
  /// Enter degraded mode when the pull-queue depth reaches this fraction
  /// of capacity; 0 disables degraded mode entirely.
  double shed_hi = 0.0;
  /// Leave degraded mode when the depth falls back to this fraction of
  /// capacity; 0 picks shed_hi / 2. Must be < shed_hi (hysteresis).
  double shed_lo = 0.0;
  /// While degraded, shed arriving requests whose page is scheduled within
  /// this many push slots (they have a near safety net; unscheduled pages
  /// are never shed). 0 picks the whole major cycle — every scheduled
  /// page sheds, only unscheduled requests are admitted.
  std::uint32_t shed_distance = 0;
  /// While degraded, the PullBW fraction is multiplied by this factor —
  /// the paper's §6 fallback of leaning on push as contention grows.
  /// In [0,1]; 1 leaves the MUX untouched.
  double degraded_pull_bw = 1.0;

  /// Any channel fault configured (loss, corruption, request loss/delay).
  bool ChannelFaultsEnabled() const {
    return slot_loss > 0.0 || slot_corruption > 0.0 || request_loss > 0.0 ||
           request_delay > 0.0;
  }

  /// Outage windows configured.
  bool OutagesEnabled() const { return outage_duration > 0.0; }

  /// Degraded-mode admission control configured.
  bool DegradedModeEnabled() const { return shed_hi > 0.0; }

  /// Anything at all configured. When false the plan is inert: no fault
  /// code runs, no RNG draws happen, and the trajectory is bit-identical
  /// to a fault-free build.
  bool Enabled() const {
    return ChannelFaultsEnabled() || OutagesEnabled() ||
           DegradedModeEnabled();
  }

  /// Returns an error description, or empty when self-consistent.
  std::string Validate() const;
};

}  // namespace bdisk::fault

#endif  // BDISK_FAULT_FAULT_PLAN_H_
