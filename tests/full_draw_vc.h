// The paper's virtual client drawn in full, for distributional tests of
// the production VC: one heap event per access, every access drawn (page
// from the whole pattern, steady coin, exponential think time), filtered
// through the ideal warm cache and the threshold filter, re-warming on
// steady misses. It never thins and never collapses.

#ifndef BDISK_TESTS_FULL_DRAW_VC_H_
#define BDISK_TESTS_FULL_DRAW_VC_H_

#include <cstdint>
#include <vector>

#include "client/threshold_filter.h"
#include "client/virtual_client.h"
#include "server/broadcast_server.h"
#include "server/update_generator.h"
#include "sim/simulator.h"
#include "workload/access_generator.h"
#include "workload/think_time.h"

namespace bdisk {

using broadcast::PageId;

// The full-draw VC: one heap event per access, every access drawn.
class FullDrawVc : public sim::EventHandler,
                   public server::InvalidationListener {
 public:
  FullDrawVc(sim::Simulator* simulator, server::BroadcastServer* server,
             const workload::AccessPattern& pattern,
             const std::vector<PageId>& warm_pages,
             const client::VirtualClientOptions& options, sim::Rng rng)
      : simulator_(simulator),
        server_(server),
        generator_(pattern),
        think_(workload::ThinkTime::Exponential(options.mc_think_time /
                                                options.think_time_ratio)),
        steady_perc_(options.steady_state_perc),
        filter_(options.thres_perc, server->program().Length()),
        warm_(pattern.DbSize(), false),
        ideal_(pattern.DbSize(), false),
        rng_(rng) {
    for (const PageId p : warm_pages) warm_[p] = ideal_[p] = true;
  }

  void Start() { simulator_->ScheduleAfter(think_.Next(rng_), this); }

  void OnInvalidate(PageId page, sim::SimTime /*now*/) override {
    warm_[page] = false;
  }

  /// Misses the threshold filter kept off the backchannel.
  std::uint64_t Filtered() const { return filtered_; }

 private:
  void OnEvent() override {
    const PageId page = generator_.Next(rng_);
    const bool steady = rng_.NextBernoulli(steady_perc_);
    if (!(steady && warm_[page])) {
      if (filter_.ShouldPull(server_->DistanceToNextPush(page))) {
        server_->SubmitRequestAt(page, obs::kVirtualClientId,
                                 simulator_->Now());
      } else {
        ++filtered_;
      }
      if (steady) warm_[page] = ideal_[page];  // The steady miss re-fetches.
    }
    simulator_->ScheduleAfter(think_.Next(rng_), this);
  }

  sim::Simulator* simulator_;
  server::BroadcastServer* server_;
  workload::AccessGenerator generator_;
  workload::ThinkTime think_;
  double steady_perc_;
  client::ThresholdFilter filter_;
  std::vector<bool> warm_;
  std::vector<bool> ideal_;
  sim::Rng rng_;
  std::uint64_t filtered_ = 0;
};

}  // namespace bdisk

#endif  // BDISK_TESTS_FULL_DRAW_VC_H_
