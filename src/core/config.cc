#include "core/config.h"

#include <cmath>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/frame_sink.h"

namespace bdisk::core {

const char* DeliveryModeName(DeliveryMode mode) {
  switch (mode) {
    case DeliveryMode::kPurePush:
      return "Push";
    case DeliveryMode::kPurePull:
      return "Pull";
    case DeliveryMode::kIpp:
      return "IPP";
  }
  return "?";
}

double SystemConfig::EffectivePullBw() const {
  switch (mode) {
    case DeliveryMode::kPurePush:
      return 0.0;
    case DeliveryMode::kPurePull:
      return 1.0;
    case DeliveryMode::kIpp:
      return pull_bw;
  }
  return pull_bw;
}

std::string SystemConfig::Validate() const {
  // NaN passes every range comparison below, and no field has a meaning
  // at infinity, so each real-valued field must be finite first.
  const std::pair<const char*, double> reals[] = {
      {"pull_bw", pull_bw},
      {"thres_perc", thres_perc},
      {"zipf_theta", zipf_theta},
      {"noise", noise},
      {"mc_think_time", mc_think_time},
      {"think_time_ratio", think_time_ratio},
      {"steady_state_perc", steady_state_perc},
      {"mc_retry_interval", mc_retry_interval},
      {"update_rate", update_rate},
      {"update_zipf_theta", update_zipf_theta.value_or(0.0)},
      {"obs_window", obs_window},
  };
  for (const auto& [name, value] : reals) {
    if (!std::isfinite(value)) {
      return std::string(name) + " must be a finite number";
    }
  }
  if (server_db_size == 0) return "server_db_size must be positive";
  if (mode != DeliveryMode::kPurePull) {
    const std::string disk_error = disks.Validate();
    if (!disk_error.empty()) return "disks: " + disk_error;
    if (disks.TotalPages() != server_db_size) {
      return "disk sizes must sum to server_db_size";
    }
    if (chop_count >= server_db_size) {
      return "chop_count must leave at least one page on the broadcast";
    }
    if (EffectiveOffset() > server_db_size - chop_count) {
      return "offset exceeds the number of broadcast pages";
    }
  }
  if (server_queue_size == 0) return "server_queue_size must be positive";
  if (pull_bw < 0.0 || pull_bw > 1.0) return "pull_bw must be in [0,1]";
  if (mode == DeliveryMode::kIpp && pull_bw == 0.0) {
    return "IPP with pull_bw == 0 is Pure-Push; use kPurePush";
  }
  if (thres_perc < 0.0 || thres_perc > 1.0) {
    return "thres_perc must be in [0,1]";
  }
  if (chop_count > 0 && mode == DeliveryMode::kPurePush) {
    return "Pure-Push cannot truncate the schedule: unscheduled pages would "
           "be unobtainable without a backchannel";
  }
  if (zipf_theta < 0.0) return "zipf_theta must be non-negative";
  if (noise < 0.0 || noise > 1.0) return "noise must be in [0,1]";
  if (cache_size == 0) return "cache_size must be positive";
  if (cache_size >= server_db_size) {
    return "cache_size must be smaller than the database";
  }
  if (mc_think_time <= 0.0) return "mc_think_time must be positive";
  if (think_time_ratio <= 0.0) return "think_time_ratio must be positive";
  // The virtual client issues think_time_ratio / mc_think_time requests
  // per slot. Its 64-bit counters and the one Poisson draw that counts a
  // full-queue segment (at most a slot) need that rate bounded.
  if (think_time_ratio > kMaxVcRequestsPerSlot * mc_think_time) {
    return "think_time_ratio must be at most 1e9 * mc_think_time: the "
           "virtual client issues at most 1e9 requests per slot";
  }
  if (steady_state_perc < 0.0 || steady_state_perc > 1.0) {
    return "steady_state_perc must be in [0,1]";
  }
  if (mc_retry_interval < 0.0) return "mc_retry_interval must be >= 0";
  if (mc_policy == cache::PolicyKind::kPix &&
      mode == DeliveryMode::kPurePull) {
    return "PIX needs a push program; Pure-Pull uses P (or LRU/LFU)";
  }
  if ((adaptive_pull_bw || adaptive_threshold) &&
      mode != DeliveryMode::kIpp) {
    return "adaptive controllers tune IPP's knobs; the pure modes have "
           "nothing to adapt";
  }
  if (update_rate < 0.0) return "update_rate must be non-negative";
  if (update_rate > static_cast<double>(server_db_size)) {
    return "update_rate must be at most server_db_size (" +
           std::to_string(server_db_size) + ") updates per slot";
  }
  if (update_zipf_theta.has_value() && *update_zipf_theta < 0.0) {
    return "update_zipf_theta must be non-negative";
  }
  if (mc_prefetch && mode == DeliveryMode::kPurePull) {
    return "prefetching reads the push broadcast; Pure-Pull has none";
  }
  if (obs_window <= 0.0) return "obs_window must be positive";
  {
    const std::string fault_error = fault.Validate();
    if (!fault_error.empty()) return fault_error;
  }
  if (fault.ChannelFaultsEnabled() || fault.OutagesEnabled()) {
    if (mode == DeliveryMode::kPurePush &&
        (fault.request_loss > 0.0 || fault.request_delay > 0.0)) {
      return "fault.request_loss/request_delay need a backchannel; "
             "Pure-Push has none";
    }
  }
  if (fault.DegradedModeEnabled() && mode == DeliveryMode::kPurePush) {
    return "fault.shed_hi governs the pull queue; Pure-Push has none";
  }
  if (frames.rfind("unix:", 0) == 0) {
    // Catch over-long socket paths at config time: the kernel would
    // silently truncate them at bind/connect and the sink would dial a
    // different name than the receiver bound.
    const std::string path_error =
        obs::ValidateUnixSocketPath(frames.substr(5));
    if (!path_error.empty()) return "frames: " + path_error;
  }
  if (!flight_recorder.empty()) {
    obs::FlightTriggers triggers;
    const std::string error =
        obs::ParseFlightTriggerSpec(flight_recorder, &triggers);
    if (!error.empty()) return "flight_recorder: " + error;
  }
  return "";
}

}  // namespace bdisk::core
