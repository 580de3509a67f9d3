#include "fault/fault_plan.h"

#include <cmath>
#include <sstream>
#include <utility>

namespace bdisk::fault {

namespace {

std::string ProbabilityError(const char* key, double value) {
  std::ostringstream out;
  out << key << " must be a probability in [0, 1], got " << value;
  return out.str();
}

std::string NonNegativeError(const char* key, double value) {
  std::ostringstream out;
  out << key << " must be >= 0, got " << value;
  return out.str();
}

}  // namespace

std::string FaultPlan::Validate() const {
  // NaN passes every range comparison below; infinity means nothing here.
  const std::pair<const char*, double> reals[] = {
      {"fault.slot_loss", slot_loss},
      {"fault.slot_corruption", slot_corruption},
      {"fault.request_loss", request_loss},
      {"fault.request_delay", request_delay},
      {"fault.outage_start", outage_start},
      {"fault.outage_duration", outage_duration},
      {"fault.outage_period", outage_period},
      {"fault.mc_timeout", mc_timeout},
      {"fault.mc_backoff", mc_backoff},
      {"fault.mc_backoff_cap", mc_backoff_cap},
      {"fault.mc_jitter", mc_jitter},
      {"fault.mc_probe_interval", mc_probe_interval},
      {"fault.shed_hi", shed_hi},
      {"fault.shed_lo", shed_lo},
      {"fault.degraded_pull_bw", degraded_pull_bw},
  };
  for (const auto& [name, value] : reals) {
    if (!std::isfinite(value)) {
      return std::string(name) + " must be a finite number";
    }
  }
  if (slot_loss < 0.0 || slot_loss > 1.0) {
    return ProbabilityError("fault.slot_loss", slot_loss);
  }
  if (slot_corruption < 0.0 || slot_corruption > 1.0) {
    return ProbabilityError("fault.slot_corruption", slot_corruption);
  }
  if (slot_loss + slot_corruption > 1.0) {
    std::ostringstream out;
    out << "fault.slot_loss + fault.slot_corruption must not exceed 1, got "
        << slot_loss + slot_corruption;
    return out.str();
  }
  if (request_loss < 0.0 || request_loss > 1.0) {
    return ProbabilityError("fault.request_loss", request_loss);
  }
  if (request_delay < 0.0) {
    return NonNegativeError("fault.request_delay", request_delay);
  }
  if (outage_start < 0.0) {
    return NonNegativeError("fault.outage_start", outage_start);
  }
  if (outage_duration < 0.0) {
    return NonNegativeError("fault.outage_duration", outage_duration);
  }
  if (outage_period < 0.0) {
    return NonNegativeError("fault.outage_period", outage_period);
  }
  if (outage_duration > 0.0 && outage_period > 0.0 &&
      outage_period <= outage_duration) {
    std::ostringstream out;
    out << "fault.outage_period (" << outage_period
        << ") must exceed fault.outage_duration (" << outage_duration
        << ") or be 0 for a one-shot window";
    return out.str();
  }
  if (mc_timeout < 0.0) {
    return NonNegativeError("fault.mc_timeout", mc_timeout);
  }
  if (mc_backoff < 1.0) {
    std::ostringstream out;
    out << "fault.mc_backoff must be >= 1, got " << mc_backoff;
    return out.str();
  }
  if (mc_backoff_cap < 0.0) {
    return NonNegativeError("fault.mc_backoff_cap", mc_backoff_cap);
  }
  if (mc_backoff_cap > 0.0 && mc_timeout > 0.0 &&
      mc_backoff_cap < mc_timeout) {
    std::ostringstream out;
    out << "fault.mc_backoff_cap (" << mc_backoff_cap
        << ") must be >= fault.mc_timeout (" << mc_timeout << ")";
    return out.str();
  }
  if (mc_jitter < 0.0 || mc_jitter > 1.0) {
    return ProbabilityError("fault.mc_jitter", mc_jitter);
  }
  if (mc_probe_interval < 0.0) {
    return NonNegativeError("fault.mc_probe_interval", mc_probe_interval);
  }
  if (shed_hi < 0.0 || shed_hi > 1.0) {
    return ProbabilityError("fault.shed_hi", shed_hi);
  }
  if (shed_lo < 0.0 || shed_lo > 1.0) {
    return ProbabilityError("fault.shed_lo", shed_lo);
  }
  if (shed_hi > 0.0 && shed_lo > 0.0 && shed_lo >= shed_hi) {
    std::ostringstream out;
    out << "fault.shed_lo (" << shed_lo << ") must be < fault.shed_hi ("
        << shed_hi << ") for hysteresis";
    return out.str();
  }
  if (degraded_pull_bw < 0.0 || degraded_pull_bw > 1.0) {
    return ProbabilityError("fault.degraded_pull_bw", degraded_pull_bw);
  }
  return {};
}

}  // namespace bdisk::fault
