// Kernel-matrix invariance: the fused virtual client (its batched arrival
// spine drained at lazy-source barriers, under batched slot spans) must
// produce the bit-identical simulated trajectory — metrics, counters, and
// the full trace stream — as the unfused reference, where every VC arrival
// is its own heap event. The pair is pinned with and without an active
// fault plan, under volatile data and both controllers, and with every
// observer attached.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "obs/frame_sink.h"
#include "obs/phase_profiler.h"
#include "obs/telemetry_bus.h"
#include "obs/trace_sink.h"
#include "obs/windowed_collector.h"

namespace bdisk {
namespace {

// A cell is the VC path: the fused spine first, then the per-arrival
// reference it is compared against.
using Cell = core::VcPath;
const Cell kMatrix[] = {core::VcPath::kSpine,
                        core::VcPath::kPerArrivalReference};

std::string CellName(Cell cell) {
  return cell == core::VcPath::kSpine ? "fused-spine" : "unfused-reference";
}

core::SteadyStateProtocol SmallProtocol() {
  core::SteadyStateProtocol protocol;
  protocol.post_fill_accesses = 100;
  protocol.min_measured_accesses = 500;
  protocol.max_measured_accesses = 1500;
  protocol.batch_size = 250;
  protocol.tolerance = 0.1;
  return protocol;
}

core::SystemConfig SmallLoadedConfig() {
  core::SystemConfig config;
  config.mode = core::DeliveryMode::kIpp;
  config.server_db_size = 100;
  config.disks = broadcast::DiskConfig{{10, 40, 50}, {3, 2, 1}};
  config.cache_size = 10;
  config.server_queue_size = 10;
  config.mc_think_time = 5.0;
  config.think_time_ratio = 50.0;
  config.pull_bw = 0.5;
  config.thres_perc = 0.1;
  config.seed = 20260808;
  return config;
}

// Trajectory fields only: profile counters (heap high water, stale-discard
// timing, span counts, fused arrivals) differ between the fused and
// unfused paths by design.
void ExpectSameTrajectory(const core::RunResult& a, const core::RunResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.mean_response, b.mean_response);
  EXPECT_EQ(a.response_stats.Variance(), b.response_stats.Variance());
  EXPECT_EQ(a.response_stats.Count(), b.response_stats.Count());
  EXPECT_EQ(a.response_p50, b.response_p50);
  EXPECT_EQ(a.response_p90, b.response_p90);
  EXPECT_EQ(a.response_p99, b.response_p99);
  EXPECT_EQ(a.response_max, b.response_max);
  EXPECT_EQ(a.mc_accesses, b.mc_accesses);
  EXPECT_EQ(a.mc_hit_rate, b.mc_hit_rate);
  EXPECT_EQ(a.mc_pulls_sent, b.mc_pulls_sent);
  EXPECT_EQ(a.mc_retries_sent, b.mc_retries_sent);
  EXPECT_EQ(a.mc_invalidations, b.mc_invalidations);
  EXPECT_EQ(a.vc_requests_generated, b.vc_requests_generated);
  EXPECT_EQ(a.vc_filtered, b.vc_filtered);
  EXPECT_EQ(a.vc_submitted, b.vc_submitted);
  EXPECT_EQ(a.updates_generated, b.updates_generated);
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_accepted, b.requests_accepted);
  EXPECT_EQ(a.requests_coalesced, b.requests_coalesced);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.requests_shed, b.requests_shed);
  EXPECT_EQ(a.requests_dropped_outage, b.requests_dropped_outage);
  EXPECT_EQ(a.queue_depth_high_water, b.queue_depth_high_water);
  EXPECT_EQ(a.fault_slots_lost, b.fault_slots_lost);
  EXPECT_EQ(a.fault_slots_corrupted, b.fault_slots_corrupted);
  EXPECT_EQ(a.fault_requests_lost, b.fault_requests_lost);
  EXPECT_EQ(a.fault_requests_delayed, b.fault_requests_delayed);
  EXPECT_EQ(a.outage_slots, b.outage_slots);
  EXPECT_EQ(a.mc_timeouts_fired, b.mc_timeouts_fired);
  EXPECT_EQ(a.mc_fallbacks, b.mc_fallbacks);
  EXPECT_EQ(a.push_slot_frac, b.push_slot_frac);
  EXPECT_EQ(a.pull_slot_frac, b.pull_slot_frac);
  EXPECT_EQ(a.idle_slot_frac, b.idle_slot_frac);
  EXPECT_EQ(a.sim_time_end, b.sim_time_end);
  EXPECT_EQ(a.converged, b.converged);
  // Every slot occurrence is counted, whether a batched span or Pop()
  // fired it, and each fused arrival stands for exactly one unfused event.
  EXPECT_EQ(a.kernel.periodic_rearms, b.kernel.periodic_rearms);
  EXPECT_EQ(a.kernel.events_executed + a.kernel.lazy_arrivals_fused,
            b.kernel.events_executed + b.kernel.lazy_arrivals_fused);
}

// Runs every cell of the matrix on `config`, checks each against the
// first, and returns the results in kMatrix order.
std::vector<core::RunResult> ExpectMatrixInvariant(
    const core::SystemConfig& config) {
  std::vector<core::RunResult> results;
  std::optional<core::RunResult> reference;
  for (std::size_t i = 0; i < std::size(kMatrix); ++i) {
    core::System system(config, nullptr, kMatrix[i]);
    const core::RunResult cell = system.RunSteadyState(SmallProtocol());
    // The spine cell actually takes spine drains; the reference takes
    // every arrival as a heap event.
    if (system.vc() != nullptr) {
      if (kMatrix[i] == core::VcPath::kSpine) {
        EXPECT_GT(cell.kernel.lazy_arrivals_fused, 0U)
            << CellName(kMatrix[i]);
      } else {
        EXPECT_EQ(cell.kernel.lazy_arrivals_fused, 0U)
            << CellName(kMatrix[i]);
      }
    }
    // Both cells run the slot loop in batched spans.
    EXPECT_GT(cell.kernel.periodic_spans, 0U) << CellName(kMatrix[i]);
    results.push_back(cell);
    if (!reference.has_value()) {
      reference = cell;
      continue;
    }
    ExpectSameTrajectory(*reference, cell,
                         CellName(kMatrix[0]) + " vs " + CellName(kMatrix[i]));
  }
  return results;
}

// The two cells are the two ways the one kernel carries VC load: arrivals
// batched on the spine inside long slot spans, or every arrival a heap
// event that cuts the span short.
TEST(KernelMatrixTest, TrajectoryInvariantAcrossQueueAndBatching) {
  ExpectMatrixInvariant(SmallLoadedConfig());
}

TEST(KernelMatrixTest, TrajectoryInvariantUnfused) {
  // The unfused VC path schedules every arrival as a one-shot — far more
  // churn through the heap, and spans break at every arrival. A heavier
  // VC (think-time ratio 250) makes arrivals outnumber slots; the
  // reference must really take that path and still match the fused cell.
  // The queue has room for more pages than the database holds, so it
  // never fills, the full-queue collapse never engages and every arrival
  // is drawn (TrajectoryInvariantWithSaturatedQueue covers the collapse).
  core::SystemConfig config = SmallLoadedConfig();
  config.think_time_ratio = 250.0;
  config.server_queue_size = config.server_db_size + 1;
  const std::vector<core::RunResult> results = ExpectMatrixInvariant(config);
  ASSERT_EQ(results.size(), 2U);
  const core::RunResult& fused = results[0];
  const core::RunResult& unfused = results[1];
  EXPECT_EQ(fused.vc_requests_generated, fused.kernel.lazy_arrivals_fused);
  EXPECT_GT(fused.kernel.lazy_arrivals_fused, fused.kernel.periodic_rearms);
  EXPECT_EQ(unfused.kernel.events_executed,
            fused.kernel.events_executed + fused.kernel.lazy_arrivals_fused);
  EXPECT_GT(unfused.kernel.periodic_spans, fused.kernel.periodic_spans);
}

TEST(KernelMatrixTest, TrajectoryInvariantWithActiveFaultPlan) {
  // An *active* plan: fault code draws randomness, injects slot loss and
  // outages, delays requests, and drives the MC retry/timeout engine —
  // all of it must land identically on both cells. Delayed requests ride
  // the server's delay line on both, merged with the spine's drains on
  // one. Fractional window edges put outage boundaries between slots, so
  // an arrival must be judged at its own time, not its drain barrier's.
  // (The inert-plan case is the default-config test above; see
  // ROBUSTNESS.md.)
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.05;
  config.fault.request_loss = 0.05;
  config.fault.request_delay = 2.0;
  config.fault.outage_start = 200.5;
  config.fault.outage_duration = 25.25;
  config.fault.outage_period = 400.75;
  config.fault.mc_timeout = 50.0;
  ASSERT_TRUE(config.fault.Enabled());
  ASSERT_EQ(config.Validate(), "");
  ExpectMatrixInvariant(config);
}

TEST(KernelMatrixTest, TrajectoryInvariantWithUpdatesAndAdaptation) {
  // Volatile data plus both controllers: the densest event mix (update
  // wakeups, controller windows, invalidation barriers) the system has.
  core::SystemConfig config = SmallLoadedConfig();
  config.update_rate = 0.2;
  config.adaptive_pull_bw = true;
  config.adaptive_threshold = true;
  ExpectMatrixInvariant(config);
}

// Runs both cells on `config` with the trace attached and checks that
// the complete span streams match record for record.
void ExpectTraceStreamsIdentical(const core::SystemConfig& config) {
  std::vector<obs::SpanRecord> reference;
  for (std::size_t i = 0; i < std::size(kMatrix); ++i) {
    core::System system(config, nullptr, kMatrix[i]);
    obs::TraceSink sink(1 << 21);
    system.AttachTrace(&sink);
    system.RunSteadyState(SmallProtocol());
    ASSERT_EQ(sink.DroppedEvents(), 0U) << CellName(kMatrix[i]);
    if (i == 0) {
      reference = sink.Events();
      ASSERT_GT(reference.size(), 0U);
      continue;
    }
    const std::vector<obs::SpanRecord>& events = sink.Events();
    ASSERT_EQ(events.size(), reference.size()) << CellName(kMatrix[i]);
    for (std::size_t r = 0; r < events.size(); ++r) {
      ASSERT_EQ(events[r].time, reference[r].time)
          << CellName(kMatrix[i]) << " record " << r;
      ASSERT_EQ(events[r].event, reference[r].event)
          << CellName(kMatrix[i]) << " record " << r;
      ASSERT_EQ(events[r].client, reference[r].client)
          << CellName(kMatrix[i]) << " record " << r;
      ASSERT_EQ(events[r].page, reference[r].page)
          << CellName(kMatrix[i]) << " record " << r;
      ASSERT_EQ(events[r].value, reference[r].value)
          << CellName(kMatrix[i]) << " record " << r;
    }
  }
}

// The strongest pin: the complete trace stream — every span record, in
// order, with timestamps and payloads — must be byte-for-byte identical
// between the fused spine and the unfused reference, on the fault-free
// config and on an active plan whose degraded-mode edges, outage drops
// and delayed deliveries all land between slot barriers.
TEST(KernelMatrixTest, TraceStreamsIdenticalAcrossMatrix) {
  core::SystemConfig config = SmallLoadedConfig();
  config.update_rate = 0.2;
  {
    SCOPED_TRACE("fault-free");
    ExpectTraceStreamsIdentical(config);
  }
  config.fault.request_loss = 0.05;
  config.fault.request_delay = 2.0;
  config.fault.outage_start = 100.5;
  config.fault.outage_duration = 30.25;
  config.fault.outage_period = 400.75;
  config.fault.shed_hi = 0.6;
  config.fault.degraded_pull_bw = 0.5;
  ASSERT_EQ(config.Validate(), "");
  SCOPED_TRACE("active plan");
  ExpectTraceStreamsIdentical(config);
}

// Saturated: the queue is full nearly always, so the VC spends most of
// the run collapsed, counting each barrier segment's arrivals. Both cells
// take the collapse at the same arrivals and close the same segments, so
// they stay bit-identical; request observers expand the counts into
// records from a private stream, so attaching them moves no counter.
TEST(KernelMatrixTest, TrajectoryInvariantWithSaturatedQueue) {
  core::SystemConfig config = SmallLoadedConfig();
  config.think_time_ratio = 250.0;
  config.thres_perc = 0.0;
  config.update_rate = 0.02;  // Invalidations end collapses too.
  const std::vector<core::RunResult> results = ExpectMatrixInvariant(config);
  ASSERT_EQ(results.size(), 2U);
  // Most arrivals were counted, not drawn.
  EXPECT_GT(results[0].vc_requests_generated,
            4 * results[0].kernel.lazy_arrivals_fused);
  ExpectTraceStreamsIdentical(config);

  for (const Cell cell : kMatrix) {
    core::System plain(config, nullptr, cell);
    const core::RunResult reference = plain.RunSteadyState(SmallProtocol());

    core::System observed(config, nullptr, cell);
    obs::TraceSink sink(1 << 22);
    obs::WindowedCollector collector(config.obs_window);
    obs::TelemetryBus bus(std::make_unique<obs::CaptureFrameSink>());
    bus.EnableWallClock(false);
    observed.AttachTrace(&sink);
    observed.AttachWindowedCollector(&collector);
    observed.AttachTelemetryBus(&bus);
    const core::RunResult result = observed.RunSteadyState(SmallProtocol());
    ExpectSameTrajectory(reference, result,
                         CellName(cell) + " observers off vs on");
    EXPECT_EQ(sink.DroppedEvents(), 0U) << CellName(cell);
    EXPECT_GT(bus.WindowFrames(), 0U) << CellName(cell);
  }
}

// Profiler arm: attaching the wall-clock phase profiler is a pure
// wall-clock knob. Both cells must produce the bit-identical
// RunResult *and* trace stream with the profiler attached as without —
// under an active fault plan, so the fault.judge instrumentation sites
// (which straddle the injector's RNG draws) are exercised.
TEST(KernelMatrixTest, ProfilerAttachLeavesTrajectoryBitIdentical) {
  core::SystemConfig config = SmallLoadedConfig();
  config.update_rate = 0.2;
  config.fault.slot_loss = 0.05;
  config.fault.request_loss = 0.05;
  config.fault.request_delay = 2.0;
  config.fault.mc_timeout = 50.0;
  ASSERT_TRUE(config.fault.Enabled());

  for (const Cell cell : kMatrix) {
    core::System plain(config, nullptr, cell);
    obs::TraceSink plain_sink(1 << 21);
    plain.AttachTrace(&plain_sink);
    const core::RunResult reference = plain.RunSteadyState(SmallProtocol());

    core::System profiled(config, nullptr, cell);
    obs::TraceSink profiled_sink(1 << 21);
    obs::PhaseProfiler profiler;
    profiled.AttachTrace(&profiled_sink);
    profiled.AttachProfiler(&profiler);
    const core::RunResult result = profiled.RunSteadyState(SmallProtocol());

    ExpectSameTrajectory(reference, result,
                         CellName(cell) + " profiler off vs on");
    const std::vector<obs::SpanRecord>& a = plain_sink.Events();
    const std::vector<obs::SpanRecord>& b = profiled_sink.Events();
    ASSERT_EQ(a.size(), b.size()) << CellName(cell);
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(a[r].time, b[r].time) << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].event, b[r].event) << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].client, b[r].client)
          << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].page, b[r].page) << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].value, b[r].value)
          << CellName(cell) << " record " << r;
    }

    // The profile actually observed the run: every frame closed, the
    // fused-arrival and slot phases fired, and the fault sites were hit.
    EXPECT_EQ(profiler.OpenDepth(), 0) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kRun), 0U) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kServerSlot), 0U) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kVcArrival), 0U) << CellName(cell);
    EXPECT_GT(profiler.Calls(obs::Phase::kFaultJudge), 0U) << CellName(cell);
    EXPECT_GT(profiler.Ops(obs::Phase::kVcArrival), 0U) << CellName(cell);
  }
}

// Telemetry-bus arm: streaming bdisk-frame-v1 frames is a pure observer
// too. Both cells must produce the bit-identical RunResult *and* trace
// stream with the bus attached as without — and, because frame provenance
// carries only trajectory-relevant fields (never the VC path) and the wall
// clock is suppressed, the frame streams themselves must be byte-identical
// between the cells.
TEST(KernelMatrixTest, TelemetryBusAttachLeavesTrajectoryBitIdentical) {
  core::SystemConfig config = SmallLoadedConfig();
  config.fault.slot_loss = 0.05;
  config.fault.request_loss = 0.05;
  ASSERT_TRUE(config.fault.Enabled());

  std::vector<std::string> reference_frames;
  for (const Cell cell : kMatrix) {
    core::System plain(config, nullptr, cell);
    obs::TraceSink plain_sink(1 << 21);
    plain.AttachTrace(&plain_sink);
    const core::RunResult reference = plain.RunSteadyState(SmallProtocol());

    core::System observed(config, nullptr, cell);
    obs::TraceSink observed_sink(1 << 21);
    auto frame_sink = std::make_unique<obs::CaptureFrameSink>();
    obs::CaptureFrameSink* capture = frame_sink.get();
    obs::WindowedCollector collector(config.obs_window);
    obs::TelemetryBus bus(std::move(frame_sink));
    bus.EnableWallClock(false);
    observed.AttachTrace(&observed_sink);
    observed.AttachWindowedCollector(&collector);
    observed.AttachTelemetryBus(&bus);
    const core::RunResult result = observed.RunSteadyState(SmallProtocol());

    ExpectSameTrajectory(reference, result, CellName(cell) + " bus off vs on");
    const std::vector<obs::SpanRecord>& a = plain_sink.Events();
    const std::vector<obs::SpanRecord>& b = observed_sink.Events();
    ASSERT_EQ(a.size(), b.size()) << CellName(cell);
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(a[r].time, b[r].time) << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].event, b[r].event) << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].client, b[r].client)
          << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].page, b[r].page) << CellName(cell) << " record " << r;
      ASSERT_EQ(a[r].value, b[r].value)
          << CellName(cell) << " record " << r;
    }

    // The stream observed the run, with nothing dropped by a memory sink.
    EXPECT_GT(bus.WindowFrames(), 0U) << CellName(cell);
    EXPECT_EQ(bus.FramesDropped(), 0U) << CellName(cell);
    if (reference_frames.empty()) {
      reference_frames = capture->frames();
      ASSERT_GT(reference_frames.size(), 2U);
      continue;
    }
    // Byte-identical frames, fused or unfused.
    EXPECT_EQ(capture->frames(), reference_frames) << CellName(cell);
  }
}

}  // namespace
}  // namespace bdisk
