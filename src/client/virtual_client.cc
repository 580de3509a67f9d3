#include "client/virtual_client.h"

#include <algorithm>
#include <cmath>

#include "sim/check.h"

namespace bdisk::client {

VirtualClient::VirtualClient(sim::Simulator* simulator,
                             server::BroadcastServer* server,
                             const workload::AccessPattern& pattern,
                             const std::vector<PageId>& warm_pages,
                             const VirtualClientOptions& options, sim::Rng rng)
    : simulator_(simulator),
      server_(server),
      rewarm_mean_(pattern.DbSize(), 0.0),
      options_(options),
      filter_(options.thres_perc, server->program().Length()),
      warm_cached_(pattern.DbSize(), false),
      rng_(rng),
      snapshot_(server->program()),
      // Whole-cycle threshold-decision table (spine only): one bit test
      // per arrival instead of an occurrence search. Null (empty program,
      // or a degenerate cycle too large for the bitset) falls back to the
      // snapshot's memoized per-page search.
      span_table_(options.fused ? broadcast::CycleSpanTable::BuildIfFeasible(
                                      server->program(),
                                      filter_.ThresholdSlots())
                                : nullptr),
      split_(server->program(), span_table_.get(), filter_.ThresholdSlots(),
             server->queue()),
      record_rng_(sim::Rng(rng).Split()) {
  BDISK_CHECK_MSG(simulator != nullptr, "client needs a simulator");
  BDISK_CHECK_MSG(server != nullptr, "client needs a server");
  BDISK_CHECK_MSG(options.think_time_ratio > 0.0,
                  "ThinkTimeRatio must be positive");
  BDISK_CHECK_MSG(options.steady_state_perc >= 0.0 &&
                      options.steady_state_perc <= 1.0,
                  "SteadyStatePerc must be a fraction in [0,1]");
  BDISK_CHECK_MSG(warm_pages.size() == options.cache_size,
                  "warmed cache must contain exactly CacheSize pages");
  for (const PageId p : warm_pages) {
    BDISK_CHECK_MSG(p < pattern.DbSize(), "warm page out of range");
    BDISK_CHECK_MSG(!warm_cached_[p], "warm pages must be distinct");
    warm_cached_[p] = true;
  }
  // Split the paper's arrival stream (rate λ, page ~ q, steady coin σ) by
  // (page, coin). Stream A keeps every part that always misses: warm-up
  // accesses, and steady accesses to pages outside W. q sums to 1
  // (AccessPattern checks it), so A's rate is λ·Z with
  // Z = 1 − σ·Σ_{p∈W} q_p; at σ = 0 that is exactly 1 and the weights are
  // q itself, so A is the paper's own stream.
  const double sigma = options.steady_state_perc;
  const double think_mean = options.mc_think_time / options.think_time_ratio;
  std::vector<double> weights = pattern.probs();
  double warm_mass = 0.0;
  for (const PageId p : warm_pages) {
    warm_mass += weights[p];
    weights[p] *= 1.0 - sigma;
  }
  const double z = 1.0 - sigma * warm_mass;
  // Z = 0 (σ = 1 and all of q in W), or a rounding residue of it: A never
  // fires, and there is no distribution to sample.
  if (z > 0.0 && std::any_of(weights.begin(), weights.end(),
                             [](double w) { return w > 0.0; })) {
    miss_pages_.emplace(weights);
    miss_mean_ = think_mean / z;
    miss_rate_ = 1.0 / miss_mean_;
    exp_neg_miss_rate_ = std::exp(-miss_rate_);
  }
  // Stream B's rates: steady accesses to a page of W, rate λσq_p.
  for (const PageId p : warm_pages) {
    const double rate = sigma * pattern.probs()[p];
    if (rate > 0.0) rewarm_mean_[p] = think_mean / rate;
  }
}

VirtualClient::~VirtualClient() {
  server_->SetPullQueueListener(nullptr);
  if (registered_) simulator_->UnregisterLazySource(this);
  if (wakeup_ != sim::kInvalidEventId) simulator_->Cancel(wakeup_);
}

void VirtualClient::Start() {
  // Both paths draw the first stream-A interval here, so the RNG stream is
  // consumed at the same point regardless of fusion.
  if (miss_pages_) {
    next_arrival_ = simulator_->Now() + rng_.NextExponential(miss_mean_);
  }
  if (options_.fused) {
    simulator_->RegisterLazySource(this);
    registered_ = true;
  } else {
    ScheduleWakeup();
  }
}

void VirtualClient::OnInvalidate(PageId page, sim::SimTime now) {
  // Barrier: arrivals strictly before the update must filter through the
  // still-warm copy, so drain before clearing the flag.
  simulator_->CatchUpLazySources();
  // A page that is already cold keeps its pending clock: steady accesses
  // are Poisson, so the wait left is Exp(λσq_p) whenever it is looked at.
  if (!warm_cached_[page]) return;
  warm_cached_[page] = false;
  const double mean = rewarm_mean_[page];
  if (mean == 0.0) return;  // No steady accesses: the page stays cold.
  const sim::SimTime due = now + rng_.NextExponential(mean);
  cold_.push_back(ColdClock{due, page});
  std::push_heap(cold_.begin(), cold_.end(), ClockAfter);
  // A pending clock ends the collapse: B fires (and re-warms) per arrival.
  if (collapsed_) EndCollapse(now);
  if (!options_.fused) {
    if (wakeup_ != sim::kInvalidEventId) simulator_->Cancel(wakeup_);
    ScheduleWakeup();
  }
}

PageId VirtualClient::FireColdClock() {
  std::pop_heap(cold_.begin(), cold_.end(), ClockAfter);
  const PageId page = cold_.back().page;
  cold_.pop_back();
  // The steady miss re-fetches: the page re-enters the represented warm
  // caches until the next update.
  warm_cached_[page] = true;
  return page;
}

void VirtualClient::Route(PageId page, bool pull, sim::SimTime at) {
  if (pull) {
    // SubmitRequestAt: a fused arrival is drained at a later barrier, but
    // its trace record must carry its own arrival time. It never re-enters
    // the VC (it does not drain lazy sources).
    server_->SubmitRequestAt(page, obs::kVirtualClientId, at);
    ++submitted_;
  } else {
    ++filtered_;
  }
}

std::uint64_t VirtualClient::CatchUp(sim::SimTime horizon) {
  if (NextArrivalTime() > horizon) return 0;
  // The VC arrival hot path: one frame per non-empty drain, arrivals
  // (drawn or counted) as ops — never a per-arrival timestamp.
  obs::PhaseScope prof(simulator_->phase_profiler(),
                       obs::Phase::kVcArrival);
  const std::uint64_t drawn = collapsed_ ? 0 : DrainSpine(horizon);
  // A drain that collapsed closes the rest of its span as a segment.
  const std::uint64_t counted =
      collapsed_ && horizon > segment_start_ ? CloseSegment(horizon) : 0;
  prof.AddOps(drawn + counted);
  return drawn;
}

std::uint64_t VirtualClient::DrainSpine(sim::SimTime horizon) {
  // Barrier-frozen snapshot: the cursor cannot move during a drain (it
  // only advances in the server's slot decision, which runs after the
  // CatchUpLazySources barrier), so one position serves the whole batch —
  // and, via the epoch memo, consecutive drains within the same slot.
  snapshot_.Freeze(server_->SchedulePosition());
  const std::uint32_t pos = snapshot_.Position();
  const broadcast::CycleSpanTable* table = span_table_.get();
  const auto should_pull = [&](PageId page) {
    return table != nullptr ? table->ShouldPull(page, pos)
                            : filter_.ShouldPull(snapshot_.Distance(page));
  };
  const sim::AliasSampler* pages = miss_pages_ ? &*miss_pages_ : nullptr;
  const double miss_mean = miss_mean_;
  // Fused draw+classify pass. The RNG state and the stream-A clock live in
  // locals (registers) for the whole drain. Every drawn arrival misses, so
  // the pass is draw page, draw interval, one bit test, and (almost
  // always) the call into the server, in timestamp order. Stream B's
  // earliest clock bounds each run of A arrivals; it is empty unless
  // updates have made warm-set pages cold. An arrival that leaves the
  // queue full and inert ends the pass: the rest of the drain collapses.
  sim::Rng local = rng_;
  sim::SimTime next = next_arrival_;
  std::uint64_t processed = 0;
  sim::SimTime full_at = sim::kTimeNever;
  for (;;) {
    const sim::SimTime cold_due =
        cold_.empty() ? sim::kTimeNever : cold_.front().due;
    const sim::SimTime stop = std::min(horizon, cold_due);
    while (next <= stop) {
      const sim::SimTime at = next;
      const auto page = static_cast<PageId>(pages->Sample(local));
      next = at + local.NextExponential(miss_mean);
      Route(page, should_pull(page), at);
      ++processed;
      if (CanCollapse()) {
        full_at = at;
        break;
      }
    }
    if (full_at != sim::kTimeNever || cold_due > horizon) break;
    const PageId page = FireColdClock();
    Route(page, should_pull(page), cold_due);
    ++processed;
    if (CanCollapse()) {
      full_at = cold_due;
      break;
    }
  }
  rng_ = local;
  next_arrival_ = next;
  generated_ += processed;
  if (full_at != sim::kTimeNever) EnterCollapse(full_at);
  return processed;
}

bool VirtualClient::CanCollapse() const {
  return server_->FullQueueIsInert() && cold_.empty() && miss_pages_;
}

void VirtualClient::EnterCollapse(sim::SimTime at) {
  if (!split_.Ready()) {
    // First collapse: from here on every accept and pop is tracked (a run
    // whose queue never fills never pays for the notifications).
    split_.Init(*miss_pages_, server_->SchedulePosition());
    server_->SetPullQueueListener(this);
  }
  // The pending stream-A draw is discarded: whether to collapse was
  // decided at `at` without looking at it, and the arrivals after `at`
  // are Poisson whatever it was.
  collapsed_ = true;
  segment_start_ = at;
  next_arrival_ = std::nextafter(at, sim::kTimeNever);
  if (!options_.fused) {
    // The reference leaves the heap and is drained at the same barriers
    // as the spine until the pop.
    simulator_->RegisterLazySource(this);
    registered_ = true;
  }
}

std::uint64_t VirtualClient::CloseSegment(sim::SimTime horizon) {
  // Inside (segment_start_, horizon] neither the cursor nor the queue can
  // change (both move only at barriers, and every barrier closes a
  // segment), so the arrivals split by the frozen class masses: Poisson
  // splitting makes the three counts exact.
  const double span = horizon - segment_start_;
  split_.Sync(server_->SchedulePosition());
  const std::uint64_t total = split_.Total();
  const std::uint64_t mf = split_.Filtered();
  const std::uint64_t mc = split_.Coalesced();
  const double mean = span * miss_rate_;
  std::uint64_t filtered = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t dropped = 0;
  if (mean < sim::Rng::kPoissonInversionMax) {
    // One count, then a class coin per arrival (few arrivals). A whole
    // slot's e^{-mean} is cached.
    const std::uint64_t n = rng_.NextPoissonByInversion(
        mean, span == 1.0 ? exp_neg_miss_rate_ : std::exp(-mean));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t u = rng_.NextBounded(total);
      if (u < mf) {
        ++filtered;
      } else if (u < mf + mc) {
        ++coalesced;
      } else {
        ++dropped;
      }
    }
  } else {
    // Many arrivals: three independent Poisson counts, O(1) each.
    const double scale = mean / static_cast<double>(total);
    filtered = rng_.NextPoisson(scale * static_cast<double>(mf));
    coalesced = rng_.NextPoisson(scale * static_cast<double>(mc));
    dropped =
        rng_.NextPoisson(scale * static_cast<double>(total - mf - mc));
  }
  const std::uint64_t n = filtered + coalesced + dropped;
  generated_ += n;
  if (server_->ObservesRequests()) {
    ExpandSegment(horizon, filtered, coalesced, dropped);
  } else {
    filtered_ += filtered;
    submitted_ += coalesced + dropped;
    server_->NoteFullQueueArrivals(coalesced, dropped);
  }
  segment_start_ = horizon;
  next_arrival_ = std::nextafter(horizon, sim::kTimeNever);
  return n;
}

void VirtualClient::ExpandSegment(sim::SimTime horizon,
                                  std::uint64_t filtered,
                                  std::uint64_t coalesced,
                                  std::uint64_t dropped) {
  // Given the counts, the arrivals are iid uniform in the segment, their
  // classes a uniformly random arrangement of the counts, and each page is
  // drawn from w restricted to its class. Sample exactly that, from
  // record_rng_, one record at a time in time order (O(1) memory at any
  // count), and route each like a drawn arrival (the queue then coalesces
  // or drops it, as its class says). Times come from the descending order
  // statistics of k uniforms: the largest is V^{1/k}, and each next one is
  // the last times V^{1/k} with one fewer left.
  enum : std::uint8_t { kFiltered, kCoalesced, kDropped };
  const double span = horizon - segment_start_;
  const server::PullQueue& queue = server_->queue();
  const auto class_of = [&](PageId page) -> std::uint8_t {
    if (split_.IsFiltered(page)) return kFiltered;
    return queue.IsQueued(page) ? kCoalesced : kDropped;
  };
  double u = 1.0;
  for (std::uint64_t left = filtered + coalesced + dropped; left > 0;
       --left) {
    u *= std::pow(record_rng_.NextDouble(),
                  1.0 / static_cast<double>(left));
    // Rounding can put u at 1 for huge counts; keep the record inside
    // (segment_start_, horizon].
    const sim::SimTime at = std::max(
        horizon - span * u, std::nextafter(segment_start_, sim::kTimeNever));
    const std::uint64_t pick = record_rng_.NextBounded(left);
    std::uint8_t cls;
    if (pick < filtered) {
      cls = kFiltered;
      --filtered;
    } else if (pick < filtered + coalesced) {
      cls = kCoalesced;
      --coalesced;
    } else {
      cls = kDropped;
      --dropped;
    }
    PageId page;
    do {
      page = static_cast<PageId>(miss_pages_->Sample(record_rng_));
    } while (class_of(page) != cls);
    Route(page, cls != kFiltered, at);
  }
}

void VirtualClient::OnDequeued(PageId page) {
  split_.OnDequeued(page);
  if (!collapsed_) return;
  // The pop runs after its slot barrier, which closed the segment.
  const sim::SimTime now = simulator_->Now();
  BDISK_DCHECK(segment_start_ == now);
  EndCollapse(now);
  if (!options_.fused) ScheduleWakeup();
}

void VirtualClient::EndCollapse(sim::SimTime now) {
  collapsed_ = false;
  next_arrival_ = now + rng_.NextExponential(miss_mean_);
  if (registered_ && !options_.fused) {
    simulator_->UnregisterLazySource(this);
    registered_ = false;
  }
}

void VirtualClient::OnEvent() {
  obs::PhaseScope prof(simulator_->phase_profiler(),
                       obs::Phase::kVcArrival);
  prof.AddOps(1);
  wakeup_ = sim::kInvalidEventId;
  const sim::SimTime now = simulator_->Now();
  // The one candidate due now, with the spine's tie rule (A first).
  PageId page;
  if (!cold_.empty() && cold_.front().due < next_arrival_) {
    page = FireColdClock();
  } else {
    page = static_cast<PageId>(miss_pages_->Sample(rng_));
    next_arrival_ = now + rng_.NextExponential(miss_mean_);
  }
  ++generated_;
  Route(page, filter_.ShouldPull(server_->DistanceToNextPush(page)), now);
  if (CanCollapse()) {
    EnterCollapse(now);
  } else {
    ScheduleWakeup();
  }
}

void VirtualClient::ScheduleWakeup() {
  const sim::SimTime at = NextArrivalTime();
  wakeup_ = at == sim::kTimeNever ? sim::kInvalidEventId
                                  : simulator_->ScheduleAt(at, this);
}

}  // namespace bdisk::client
