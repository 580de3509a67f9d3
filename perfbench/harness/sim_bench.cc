// The simulated workloads: Table 3 IPP at the two ends of the paper's
// server-load axis, run for a fixed simulated horizon through the public
// core::System API and timed from outside.

#include "sim_bench.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "client/arrival_spine.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "reference.h"
#include "serve_bench.h"
#include "server/pull_queue.h"
#include "sim/rng.h"
#include "workload/access_generator.h"
#include "workload/think_time.h"

namespace perfbench {

namespace {

using bdisk::obs::Phase;

struct SimWorkload {
  const char* name;
  double think_time_ratio;
  double horizon_slots;            // Simulated slots per repetition.
  double reference_horizon_slots;  // Horizon of the digest run.
  const SimReference* reference;
};

const SimWorkload kWorkloads[] = {
    {"ipp_heavy", 250.0, 2.5e6, 2.0e5, &kIppHeavyReference},
    {"ipp_light", 10.0, 6.0e6, 1.0e6, &kIppLightReference},
};

// Set-ups timed before each repetition.
constexpr std::uint64_t kSetupsPerRep = 40;

// slots_per_s is this quantile of the repetitions' rates. On a shared host
// other tenants slow the run in phases of seconds to minutes, by up to
// 1.7x, and never speed it up; the median of a 30 s run then jumps with the
// share of slow phases in it, while the rate of the fastest tenth of the
// repetitions stays close to the program's own speed.
constexpr double kSlotsPerSQuantile = 0.9;

const SimWorkload* FindWorkload(const std::string& name) {
  for (const SimWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Table 3 defaults (SystemConfig's own), at the workload's load. Every
// kernel knob stays at its default.
bdisk::core::SystemConfig ConfigFor(const SimWorkload& w, std::uint64_t seed) {
  bdisk::core::SystemConfig config;
  config.mode = bdisk::core::DeliveryMode::kIpp;
  config.think_time_ratio = w.think_time_ratio;
  config.seed = seed;
  return config;
}

// A fixed simulated horizon: the access caps are out of reach, so only
// max_sim_time ends the run and the work per run does not depend on when
// batch means converge.
bdisk::core::SteadyStateProtocol FixedHorizon(double slots) {
  bdisk::core::SteadyStateProtocol protocol;
  protocol.min_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_measured_accesses = std::numeric_limits<std::uint64_t>::max();
  protocol.max_sim_time = slots;
  return protocol;
}

// The counters of one finished run, read from System::SnapshotMetrics.
struct Counts {
  double slots = 0, pull_slots = 0;
  double events = 0, drains = 0, arrivals_fused = 0;
  double vc_generated = 0, vc_submitted = 0;
  double q_submitted = 0, q_accepted = 0, q_coalesced = 0, q_dropped = 0;
  double mc_accesses = 0, mc_hits = 0;
};

Counts ReadCounts(const bdisk::core::System& system) {
  bdisk::obs::MetricsRegistry registry;
  system.SnapshotMetrics(&registry);
  const auto c = [&registry](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->Value());
  };
  Counts k;
  k.slots = c("server.slots_total");
  k.pull_slots = c("server.slots_pull");
  k.events = c("kernel.events_executed");
  k.drains = c("kernel.lazy_drains");
  k.arrivals_fused = c("kernel.lazy_arrivals_fused");
  k.vc_generated = c("client.vc.requests_generated");
  k.vc_submitted = c("client.vc.submitted");
  k.q_submitted = c("server.queue.submitted");
  k.q_accepted = c("server.queue.accepted");
  k.q_coalesced = c("server.queue.coalesced");
  k.q_dropped = c("server.queue.dropped");
  k.mc_accesses = c("client.mc.accesses");
  k.mc_hits = c("client.mc.cache.hits");
  return k;
}

// One repetition: a fresh System and its timed run.
struct Rep {
  double run_s = 0;
  bdisk::core::RunResult result;
  Counts counts;
  // Profiler figures (profiled repetitions only).
  double prof_vc_arrival_ns_per_op = 0;
  double prof_server_queue_ns_per_op = 0;
  double prof_server_mux_ns_per_slot = 0;
  double prof_mc_delivery_ns_per_slot = 0;
  double prof_self_sum_ratio = 0;
};

Rep RunRep(const SimWorkload& w, std::uint64_t seed, double horizon,
           bool profiled) {
  Rep rep;
  const bdisk::core::SystemConfig config = ConfigFor(w, seed);
  bdisk::core::System system(config, bdisk::core::BuildArtifacts(config));
  std::unique_ptr<bdisk::obs::PhaseProfiler> profiler;
  if (profiled) {
    profiler = std::make_unique<bdisk::obs::PhaseProfiler>();
    system.AttachProfiler(profiler.get());
  }
  const double t0 = NowSeconds();
  rep.result = system.RunSteadyState(FixedHorizon(horizon));
  rep.run_s = NowSeconds() - t0;
  rep.counts = ReadCounts(system);
  if (profiler) {
    bdisk::obs::PhaseProfiler& p = *profiler;
    rep.prof_vc_arrival_ns_per_op = p.NsPerOp(Phase::kVcArrival);
    rep.prof_server_queue_ns_per_op = p.NsPerOp(Phase::kServerQueue);
    rep.prof_server_mux_ns_per_slot =
        Ratio(p.EstTotalNs(Phase::kServerMux), rep.counts.slots);
    rep.prof_mc_delivery_ns_per_slot =
        Ratio(p.EstTotalNs(Phase::kMcDelivery), rep.counts.slots);
    double self_sum = 0.0;
    for (std::size_t i = 0; i < bdisk::obs::kPhaseCount; ++i) {
      self_sum += p.EstSelfNs(static_cast<Phase>(i));
    }
    rep.prof_self_sum_ratio = Ratio(self_sum, p.EstTotalNs(Phase::kRun));
  }
  return rep;
}

// Set-up alone: core::BuildArtifacts plus System construction, seconds.
struct Setup {
  double build_artifacts_s;
  double system_ctor_s;
};

Setup TimeSetup(const SimWorkload& w, std::uint64_t seed) {
  const bdisk::core::SystemConfig config = ConfigFor(w, seed);
  const double t0 = NowSeconds();
  auto artifacts = bdisk::core::BuildArtifacts(config);
  const double t1 = NowSeconds();
  bdisk::core::System system(config, artifacts);
  const double t2 = NowSeconds();
  return Setup{t1 - t0, t2 - t1};
}

// The end-to-end metrics of the serving path, which a simulated workload
// has no wire for, as one named derivation from the simulated model at
// serve_pull's pacing of kServeSlotUs per slot: pulls served per second is
// the run's pull-slot share of the paced slot rate, and the pull
// round-trips are the library's own response percentiles
// (RunResult::response_p50/p99, histogram buckets 3.9 slots wide, cache
// hits counted as 0) in paced slots. They read the model's broadcast
// behaviour, not the host's speed: no wall time enters them.
struct ServeEquivalents {
  double pulls_per_s;
  double rtt_p50_us;
  double rtt_p99_us;
};

ServeEquivalents DeriveServeEquivalents(const Rep& r) {
  return ServeEquivalents{
      Ratio(r.counts.pull_slots, r.counts.slots) * 1e6 / kServeSlotUs,
      r.result.response_p50 * kServeSlotUs,
      r.result.response_p99 * kServeSlotUs};
}

// The checked outputs of a run must fall inside the reference spread.
bool WithinReference(const SimReference& ref, const Rep& rep,
                     std::string* why) {
  const struct {
    const char* name;
    double value;
    Spread spread;
  } checks[] = {
      {"mean_response", rep.result.mean_response, ref.mean_response},
      {"mc.hit_ratio", Ratio(rep.counts.mc_hits, rep.counts.mc_accesses),
       ref.mc_hit_ratio},
      {"queue.drop_ratio", rep.result.drop_rate, ref.queue_drop_ratio},
      {"server.pull_slot_share",
       Ratio(rep.counts.pull_slots, rep.counts.slots), ref.pull_slot_share},
  };
  for (const auto& c : checks) {
    if (!(c.value >= c.spread.lo && c.value <= c.spread.hi)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s=%.6g outside [%.6g, %.6g]", c.name,
                    c.value, c.spread.lo, c.spread.hi);
      *why = buf;
      return false;
    }
  }
  return true;
}

// FNV-1a over the run's trajectory: the counters the simulated model
// produces (kernel and wall-clock counters excluded), plus the exact bits
// of the mean response and the end time.
std::uint64_t TrajectoryDigest(const Rep& rep) {
  const Counts& k = rep.counts;
  const double fields[] = {k.slots,        k.pull_slots,   k.vc_generated,
                           k.vc_submitted, k.q_submitted,  k.q_accepted,
                           k.q_coalesced,  k.q_dropped,    k.mc_accesses,
                           k.mc_hits,      rep.result.mean_response,
                           rep.result.sim_time_end};
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const double f : fields) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

// --- Replays through single layers' public functions -------------------

// The virtual client's arrival stream for `slots` slots, drained once per
// slot barrier that has work, as the fused kernel does: every call of
// client::FillArrivalBatch sees the workload's own batch size.
struct DrawReplay {
  double ns_per_arrival = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t checksum = 0;
};

DrawReplay ReplayDraw(const bdisk::core::SystemConfig& config,
                      std::uint64_t seed, std::uint64_t slots) {
  const bdisk::workload::AccessGenerator generator(
      bdisk::core::CanonicalPatternForConfig(config));
  const bdisk::workload::ThinkTime think =
      bdisk::workload::ThinkTime::Exponential(config.mc_think_time /
                                              config.think_time_ratio);
  bdisk::client::ArrivalScratch scratch(1024);
  bdisk::sim::Rng rng(seed);
  double next = think.Next(rng);
  DrawReplay out;
  const double t0 = NowSeconds();
  for (std::uint64_t s = 1; s <= slots; ++s) {
    const double horizon = static_cast<double>(s);
    while (next <= horizon) {
      const std::size_t n = bdisk::client::FillArrivalBatch(
          generator, think, config.steady_state_perc, rng, &next, horizon,
          &scratch);
      out.arrivals += n;
      out.checksum += scratch.page[n - 1] + scratch.steady[0];
    }
  }
  const double t1 = NowSeconds();
  out.ns_per_arrival =
      Ratio((t1 - t0) * 1e9, static_cast<double>(out.arrivals));
  return out;
}

// The pull-queue operations the workload generates: the VC's submits
// (arrivals that miss the warmed cache) and the MUX's pops (a pull slot
// with probability PullBW whenever the queue holds work), slot by slot.
// Encoded as page ids, with -1 for PopFront.
std::vector<std::int32_t> QueueOps(const bdisk::core::SystemConfig& config,
                                   std::uint64_t seed, std::size_t max_ops) {
  const auto artifacts = bdisk::core::BuildArtifacts(config);
  std::vector<std::uint8_t> warm(config.server_db_size, 0);
  for (const auto page : bdisk::core::TopValuedPages(
           artifacts->canonical_values, config.cache_size)) {
    warm[page] = 1;
  }
  const bdisk::workload::AccessGenerator generator(
      artifacts->canonical_pattern);
  const bdisk::workload::ThinkTime think =
      bdisk::workload::ThinkTime::Exponential(config.mc_think_time /
                                              config.think_time_ratio);
  bdisk::sim::Rng rng(seed);
  bdisk::sim::Rng mux(DeriveSeed(seed, 1));
  bdisk::server::PullQueue shadow(config.server_queue_size,
                                  config.server_db_size);
  std::vector<std::int32_t> ops;
  ops.reserve(max_ops);
  double next = think.Next(rng);
  for (std::uint64_t s = 1; ops.size() < max_ops; ++s) {
    while (next <= static_cast<double>(s)) {
      const auto page = generator.Next(rng);
      const bool steady = rng.NextBernoulli(config.steady_state_perc);
      next += think.Next(rng);
      if (steady && warm[page] != 0) continue;
      ops.push_back(static_cast<std::int32_t>(page));
      shadow.Submit(page);
    }
    if (!shadow.Empty() && mux.NextBernoulli(config.pull_bw)) {
      ops.push_back(-1);
      shadow.PopFront();
    }
  }
  return ops;
}

double ReplayQueueNsPerOp(const bdisk::core::SystemConfig& config,
                          const std::vector<std::int32_t>& ops,
                          std::uint64_t* checksum) {
  bdisk::server::PullQueue queue(config.server_queue_size,
                                 config.server_db_size);
  const double t0 = NowSeconds();
  for (const std::int32_t op : ops) {
    if (op >= 0) {
      *checksum += static_cast<std::uint64_t>(
          queue.Submit(static_cast<bdisk::server::PageId>(op)));
    } else {
      *checksum += queue.PopFront();
    }
  }
  const double t1 = NowSeconds();
  return Ratio((t1 - t0) * 1e9, static_cast<double>(ops.size()));
}

}  // namespace

bool IsSimWorkload(const std::string& name) {
  return FindWorkload(name) != nullptr;
}

RunOutcome RunSimWorkload(const RunOptions& options) {
  const SimWorkload& w = *FindWorkload(options.workload);
  RunOutcome out;

  // The trace run spends part of its time on the digest run and the
  // replays; the repetition loop gets the rest.
  double digest_rep_s = 0;
  std::uint64_t digest = 0;
  if (options.trace) {
    const double t0 = NowSeconds();
    digest = TrajectoryDigest(
        RunRep(w, kReferenceSeed, w.reference_horizon_slots, false));
    digest_rep_s = NowSeconds() - t0;
  }

  // Set-ups are timed in blocks between the repetitions, so that their
  // median spans the same stretch of host time as the runs'.
  std::vector<double> setup_s, artifacts_ms, ctor_ms;
  std::vector<Rep> plain, profiled;
  const double start = NowSeconds();
  const double budget = options.seconds * (options.trace ? 0.8 : 1.0) -
                        digest_rep_s;
  for (std::uint64_t i = 0;; ++i) {
    for (std::uint64_t j = 0; j < kSetupsPerRep; ++j) {
      const Setup t = TimeSetup(
          w, DeriveSeed(options.seed, 1000000 + i * kSetupsPerRep + j));
      setup_s.push_back(t.build_artifacts_s + t.system_ctor_s);
      artifacts_ms.push_back(t.build_artifacts_s * 1e3);
      ctor_ms.push_back(t.system_ctor_s * 1e3);
    }
    const bool prof = options.trace && i % 2 == 1;
    Rep rep = RunRep(w, DeriveSeed(options.seed, i), w.horizon_slots, prof);
    ++out.attempted;
    std::string why;
    if (!WithinReference(*w.reference, rep, &why)) {
      ++out.failed;
      out.correct = false;
      std::printf("check failed (rep %" PRIu64 "): %s\n", i, why.c_str());
    }
    (prof ? profiled : plain).push_back(std::move(rep));
    const std::size_t min_reps = options.trace ? 4 : 3;
    if (i + 1 >= min_reps && NowSeconds() - start >= budget) break;
  }

  std::vector<double> slots_per_s, pulls_per_s, rtt50, rtt99, wall_per_slot;
  for (const Rep& r : plain) {
    const ServeEquivalents e = DeriveServeEquivalents(r);
    slots_per_s.push_back(r.counts.slots / r.run_s);
    pulls_per_s.push_back(e.pulls_per_s);
    rtt50.push_back(e.rtt_p50_us);
    rtt99.push_back(e.rtt_p99_us);
    wall_per_slot.push_back(r.run_s / r.counts.slots);
  }
  const Rep& last = plain.back();
  std::printf("workload %s: %zu untraced repetitions of %.3g slots "
              "(TTR %g), %" PRIu64 " checks failed\n",
              w.name, plain.size(), w.horizon_slots, w.think_time_ratio,
              out.failed);
  std::printf("  set-up samples: %zu; response p50 %.4g, p99 %.4g slots "
              "(last repetition, %" PRIu64 " measured accesses)\n",
              setup_s.size(), last.result.response_p50,
              last.result.response_p99, last.result.response_stats.Count());

  if (!options.trace) {
    out.Add("slots_per_s", Quantile(&slots_per_s, kSlotsPerSQuantile), "1/s");
    out.Add("pulls_per_s", Median(pulls_per_s), "1/s");
    out.Add("pull_rtt_p50_us", Median(rtt50), "us");
    out.Add("pull_rtt_p99_us", Median(rtt99), "us");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("peak_rss_mib", SelfPeakRssMib(), "MiB");
    return out;
  }

  // Per-layer: counts from the last untraced run's snapshot.
  const Counts& k = last.counts;
  const bdisk::core::SystemConfig config = ConfigFor(w, options.seed);

  // Replays at the workload's own batch size and op mix.
  std::vector<double> draw_ns, queue_ns;
  std::uint64_t checksum = 0;
  const std::vector<std::int32_t> ops =
      QueueOps(config, DeriveSeed(options.seed, 2000), 1u << 20);
  // About a million arrivals per draw replay, whatever the load.
  const auto draw_slots = static_cast<std::uint64_t>(
      1e6 * config.mc_think_time / config.think_time_ratio);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const DrawReplay d =
        ReplayDraw(config, DeriveSeed(options.seed, 3000 + i), draw_slots);
    draw_ns.push_back(d.ns_per_arrival);
    checksum += d.checksum;
    queue_ns.push_back(ReplayQueueNsPerOp(config, ops, &checksum));
  }
  std::printf("  replay checksum %" PRIu64 " over %zu queue ops\n", checksum,
              ops.size());

  std::vector<double> prof_wall_per_slot, vc_ns, q_ns, mux_ns, mc_ns, self_sum;
  for (const Rep& r : profiled) {
    prof_wall_per_slot.push_back(r.run_s / r.counts.slots);
    vc_ns.push_back(r.prof_vc_arrival_ns_per_op);
    q_ns.push_back(r.prof_server_queue_ns_per_op);
    mux_ns.push_back(r.prof_server_mux_ns_per_slot);
    mc_ns.push_back(r.prof_mc_delivery_ns_per_slot);
    self_sum.push_back(r.prof_self_sum_ratio);
  }
  const double self_sum_ratio = Median(self_sum);

  out.Add("core.build_artifacts_ms", Median(artifacts_ms), "ms");
  out.Add("core.system_ctor_ms", Median(ctor_ms), "ms");
  out.Add("sim.events_per_slot", Ratio(k.events, k.slots), "count");
  out.Add("sim.drains_per_slot", Ratio(k.drains, k.slots), "count");
  out.Add("sim.trajectory_identical",
          digest == w.reference->digest ? 1.0 : 0.0, "count");
  out.Add("vc.arrivals_per_slot", Ratio(k.vc_generated, k.slots), "count");
  out.Add("vc.arrivals_per_drain", Ratio(k.arrivals_fused, k.drains), "count");
  out.Add("vc.submit_ratio", Ratio(k.vc_submitted, k.vc_generated), "ratio");
  out.Add("vc.draw_ns_per_arrival", Median(draw_ns), "ns");
  out.Add("queue.submit_ns", Median(queue_ns), "ns");
  out.Add("queue.accept_ratio", Ratio(k.q_accepted, k.q_submitted), "ratio");
  out.Add("queue.coalesce_ratio", Ratio(k.q_coalesced, k.q_submitted),
          "ratio");
  out.Add("queue.drop_ratio", Ratio(k.q_dropped, k.q_submitted), "ratio");
  out.Add("server.pull_slot_share", Ratio(k.pull_slots, k.slots), "ratio");
  out.Add("mc.hit_ratio", Ratio(k.mc_hits, k.mc_accesses), "ratio");
  out.Add("prof.vc_arrival_ns_per_op", Median(vc_ns), "ns");
  out.Add("prof.server_queue_ns_per_op", Median(q_ns), "ns");
  out.Add("prof.server_mux_ns_per_slot", Median(mux_ns), "ns");
  out.Add("prof.mc_delivery_ns_per_slot", Median(mc_ns), "ns");
  out.Add("prof.self_sum_ratio", self_sum_ratio, "ratio");
  out.Add("prof.trusted", self_sum_ratio <= 1.0 ? 1.0 : 0.0, "count");
  out.Add("prof.overhead_ratio",
          Ratio(Median(prof_wall_per_slot), Median(wall_per_slot)), "ratio");
  if (self_sum_ratio > 1.0) {
    std::printf("  prof.* untrusted: phase self-times sum to %.3f of the "
                "run\n", self_sum_ratio);
  }
  std::printf("  cross-check: queue.submit_ns %.2f vs "
              "prof.server_queue_ns_per_op %.2f; vc.draw_ns_per_arrival "
              "%.2f vs prof.vc_arrival_ns_per_op %.2f\n",
              Median(queue_ns), Median(q_ns), Median(draw_ns), Median(vc_ns));
  return out;
}

int CalibrateSimWorkload(const std::string& workload, std::uint64_t seeds) {
  const SimWorkload* w = FindWorkload(workload);
  if (w == nullptr) return 2;
  std::printf("# %s: %" PRIu64 " seeds, horizon %.3g slots\n", w->name, seeds,
              w->horizon_slots);
  std::printf("# seed mean_response hit_ratio drop_ratio pull_slot_share "
              "slots_per_s\n");
  for (std::uint64_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = DeriveSeed(0xCA11B7A7EULL, i);
    const Rep r = RunRep(*w, seed, w->horizon_slots, false);
    std::printf("%" PRIu64 " %.6f %.6f %.6f %.6f %.0f\n", seed,
                r.result.mean_response,
                Ratio(r.counts.mc_hits, r.counts.mc_accesses),
                r.result.drop_rate, Ratio(r.counts.pull_slots, r.counts.slots),
                r.counts.slots / r.run_s);
  }
  const Rep ref = RunRep(*w, kReferenceSeed, w->reference_horizon_slots, false);
  std::printf("digest 0x%016" PRIX64 "ULL\n", TrajectoryDigest(ref));
  return 0;
}

}  // namespace perfbench
