// Closed-loop overload control (DESIGN.md §11): the RTT-adaptive
// retransmission timer, the QoS governor's AIMD/hysteresis control law,
// keep-latest + deadline load shedding, service-side admission control, and
// the determinism/equivalence contracts of the governed pipeline.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "codec/turbo_codec.h"
#include "common/rng.h"
#include "core/gbooster.h"
#include "core/qos_governor.h"
#include "core/service_runtime.h"
#include "device/device_profiles.h"
#include "net/fault_plan.h"
#include "net/medium.h"
#include "net/reliable.h"
#include "runtime/event_loop.h"
#include "sim/session.h"

namespace gb {
namespace {

// --- adaptive RTO (net::ReliableEndpoint) -----------------------------------

struct RtoPair {
  EventLoop loop;
  net::Medium medium;
  net::ReliableEndpoint sender;
  net::ReliableEndpoint receiver;
  std::vector<SimTime> delivered_at;

  RtoPair(net::ReliableConfig config, double loss, std::uint64_t seed)
      : medium(loop,
               [&] {
                 net::MediumConfig c;
                 c.loss_rate = loss;
                 c.jitter_ms = 0.1;
                 return c;
               }(),
               Rng(seed), "m"),
        sender(loop, 1, config),
        receiver(loop, 2) {
    sender.bind(medium, nullptr);
    receiver.bind(medium, nullptr);
    receiver.set_handler([this](net::NodeId, net::NodeId, Bytes) {
      delivered_at.push_back(loop.now());
    });
  }
};

TEST(AdaptiveRto, NoSampleFallsBackToFixedTimeout) {
  RtoPair pair(net::ReliableConfig{}, 0.0, 3);
  EXPECT_EQ(pair.sender.current_rto(2).us(), ms(30).us());
  EXPECT_EQ(pair.sender.stats().rtt_samples, 0u);
}

TEST(AdaptiveRto, LanRttClampsRtoToFloor) {
  // On a lossless LAN the ack round-trip is well under a millisecond, so
  // SRTT + 4*RTTVAR lands below rto_min and the clamp takes over — 6x
  // tighter than the 30 ms fixed timer.
  net::ReliableConfig config;
  RtoPair pair(config, 0.0, 3);
  for (int i = 0; i < 5; ++i) pair.sender.send(2, Bytes(500, 1));
  pair.loop.run_until(seconds(1.0));
  EXPECT_EQ(pair.delivered_at.size(), 5u);
  EXPECT_EQ(pair.sender.stats().rtt_samples, 5u);
  EXPECT_EQ(pair.sender.current_rto(2).us(), config.rto_min.us());
  // The estimate is per receiver: an unknown node still gets the fixed RTO.
  EXPECT_EQ(pair.sender.current_rto(9).us(), ms(30).us());
}

TEST(AdaptiveRto, DisabledKeepsFixedTimerAndSamplesNothing) {
  net::ReliableConfig config;
  config.adaptive_rto = false;
  RtoPair pair(config, 0.0, 3);
  for (int i = 0; i < 5; ++i) pair.sender.send(2, Bytes(500, 1));
  pair.loop.run_until(seconds(1.0));
  EXPECT_EQ(pair.delivered_at.size(), 5u);
  EXPECT_EQ(pair.sender.stats().rtt_samples, 0u);
  EXPECT_EQ(pair.sender.current_rto(2).us(), ms(30).us());
}

TEST(AdaptiveRto, KarnExcludesRetransmittedMessages) {
  RtoPair pair(net::ReliableConfig{}, 0.35, 11);
  for (int i = 0; i < 30; ++i) pair.sender.send(2, Bytes(2000, 7));
  pair.loop.run_until(seconds(30.0));
  EXPECT_EQ(pair.delivered_at.size(), 30u);
  EXPECT_GT(pair.sender.stats().chunks_retransmitted, 0u);
  // Messages that were repaired contribute no sample (the ack is ambiguous),
  // so samples run strictly behind deliveries — but clean messages still
  // feed the estimator.
  EXPECT_GT(pair.sender.stats().rtt_samples, 0u);
  EXPECT_LT(pair.sender.stats().rtt_samples, pair.delivered_at.size());
}

// The satellite regression: under burst loss on a LAN, the adaptive timer
// must still back off exponentially per retry (no fixed-interval flooding)
// and must finish delivering a lossy batch sooner than the 30 ms fixed
// timer, because the first repair fires at ~rto_min instead.
TEST(AdaptiveRto, LossyBatchFinishesSoonerThanFixedTimer) {
  net::ReliableConfig adaptive;
  net::ReliableConfig fixed;
  fixed.adaptive_rto = false;
  const auto run = [](net::ReliableConfig config) {
    RtoPair pair(config, 0.3, 17);
    for (int i = 0; i < 30; ++i) pair.sender.send(2, Bytes(3000, 5));
    pair.loop.run_until(seconds(60.0));
    EXPECT_EQ(pair.delivered_at.size(), 30u);
    EXPECT_GT(pair.sender.stats().chunks_retransmitted, 0u);
    return pair.delivered_at.back();
  };
  const SimTime adaptive_done = run(adaptive);
  const SimTime fixed_done = run(fixed);
  EXPECT_LT(adaptive_done.us(), fixed_done.us());
}

// --- QoS governor control law ------------------------------------------------

core::QosGovernorConfig governor_config() {
  core::QosGovernorConfig config;
  config.enabled = true;
  config.window = ms(500);
  config.target_p95_ms = 100.0;
  config.low_fraction = 0.6;
  config.min_dwell = seconds(1.0);
  config.recover_windows = 2;
  return config;
}

TEST(QosGovernor, DegradesFastRecoversSlowWithHysteresis) {
  const auto config = governor_config();
  core::QosGovernor governor(config);
  // Overloaded window past the dwell horizon: level jumps by degrade_step.
  for (int i = 0; i < 20; ++i) governor.on_frame_displayed(250.0);
  EXPECT_TRUE(governor.evaluate(seconds(1.0), 0.0, 0));
  EXPECT_EQ(governor.level(), config.degrade_step);
  EXPECT_EQ(governor.quality(),
            config.base_quality - config.degrade_step * config.quality_step);

  // Latency between low-watermark and target: neither degrade nor recover.
  for (int i = 0; i < 20; ++i) governor.on_frame_displayed(80.0);
  EXPECT_FALSE(governor.evaluate(seconds(2.5), 0.0, 0));

  // Two calm windows (p95 below 60% of target) step the level down once.
  for (int i = 0; i < 20; ++i) governor.on_frame_displayed(20.0);
  EXPECT_FALSE(governor.evaluate(seconds(3.0), 0.0, 0));  // calm 1 of 2
  for (int i = 0; i < 20; ++i) governor.on_frame_displayed(20.0);
  EXPECT_TRUE(governor.evaluate(seconds(3.5), 0.0, 0));
  EXPECT_EQ(governor.level(), config.degrade_step - config.recover_step);
  EXPECT_EQ(governor.stats().level_raises, 1u);
  EXPECT_EQ(governor.stats().level_drops, 1u);
}

TEST(QosGovernor, DwellBlocksBackToBackChanges) {
  core::QosGovernor governor(governor_config());
  for (int i = 0; i < 10; ++i) governor.on_frame_displayed(300.0);
  EXPECT_TRUE(governor.evaluate(seconds(1.0), 0.0, 0));
  const int level = governor.level();
  // Still overloaded 500 ms later — inside the 1 s dwell, the level holds.
  for (int i = 0; i < 10; ++i) governor.on_frame_displayed(300.0);
  EXPECT_FALSE(governor.evaluate(seconds(1.5), 0.0, 0));
  EXPECT_EQ(governor.level(), level);
  EXPECT_EQ(governor.stats().windows_overloaded, 2u);
}

TEST(QosGovernor, BacklogOrDepthAloneSignalOverload) {
  core::QosGovernor by_backlog(governor_config());
  for (int i = 0; i < 10; ++i) by_backlog.on_frame_displayed(10.0);
  EXPECT_TRUE(by_backlog.evaluate(seconds(1.0), /*backlog_ms=*/80.0, 0));

  core::QosGovernor by_depth(governor_config());
  for (int i = 0; i < 10; ++i) by_depth.on_frame_displayed(10.0);
  EXPECT_TRUE(by_depth.evaluate(seconds(1.0), 0.0, /*pending_depth=*/8));

  // A stalled pipeline — frames in flight, nothing displayed all window —
  // counts as overload even with no latency sample to read.
  core::QosGovernor stalled(governor_config());
  EXPECT_TRUE(stalled.evaluate(seconds(1.0), 0.0, 1));
}

TEST(QosGovernor, LadderClampsAtQualityFloorAndSkipCeiling) {
  auto config = governor_config();
  config.min_dwell = SimTime{};
  core::QosGovernor governor(config);
  for (int w = 1; w <= 10; ++w) {
    for (int i = 0; i < 5; ++i) governor.on_frame_displayed(400.0);
    governor.evaluate(seconds(0.5 * w), 0.0, 0);
  }
  EXPECT_EQ(governor.level(), config.max_level);
  EXPECT_EQ(governor.quality(),
            std::max(config.min_quality,
                     config.base_quality -
                         config.max_level * config.quality_step));
  EXPECT_EQ(governor.skip_threshold(),
            std::min(config.max_skip_threshold,
                     config.base_skip_threshold +
                         config.max_level * config.skip_step));
  EXPECT_EQ(governor.stats().max_level_reached, config.max_level);
}

TEST(QosGovernor, DepthCapShrinksWithLevelAndRespectsFloor) {
  auto config = governor_config();
  config.min_dwell = SimTime{};
  core::QosGovernor governor(config);
  EXPECT_EQ(governor.depth_cap(6), 6);  // level 0: configured window
  for (int w = 1; w <= 10; ++w) {
    for (int i = 0; i < 5; ++i) governor.on_frame_displayed(400.0);
    governor.evaluate(seconds(0.5 * w), 0.0, 0);
  }
  EXPECT_EQ(governor.level(), config.max_level);
  EXPECT_EQ(governor.depth_cap(6),
            std::max(config.min_depth,
                     6 - config.max_level * config.depth_step));
  // A window configured below the floor is never *raised* by the cap.
  EXPECT_EQ(governor.depth_cap(1), 1);
}

TEST(QosGovernor, ShedDeadlineDerivesFromTargetWhenUnset) {
  auto config = governor_config();
  core::QosGovernor derived(config);
  EXPECT_EQ(derived.shed_deadline().ms(), 2.0 * config.target_p95_ms);
  config.shed_deadline = ms(75);
  core::QosGovernor explicit_deadline(config);
  EXPECT_EQ(explicit_deadline.shed_deadline().ms(), 75.0);
}

// Regression (stale-state sweep): an AIMD raise taken while the proactive
// capacity ladder was leading is capacity-attributed, and must unwind the
// moment the forecast recovers — on the forecast's clock, not the AIMD
// hysteresis clock. Pre-fix the reactive level stayed pinned through
// recover_windows calm windows plus min_dwell after the capacity dip that
// caused it had measurably cleared.
TEST(QosGovernor, CapacityLedRaiseUnwindsOnForecastRecovery) {
  auto config = governor_config();
  config.target_fps = 30.0;
  core::QosGovernor governor(config);
  // One frame at base quality trains the byte estimate: 30 kB per frame.
  governor.on_frame_bytes(30000, config.base_quality);

  // Forecast dips: at 600 kB/s only rung 3 (~15.6 kB frames) fits the 85%
  // headroom budget of ~17 kB — the proactive ladder leads.
  governor.on_capacity_forecast(600e3);
  ASSERT_EQ(governor.proactive_level(), 3);
  ASSERT_EQ(governor.level(), 0);

  // The predicted congestion arrives; the AIMD raise is capacity-led.
  for (int i = 0; i < 10; ++i) governor.on_frame_displayed(250.0);
  EXPECT_TRUE(governor.evaluate(seconds(1.0), 0.0, 0));
  ASSERT_EQ(governor.level(), config.degrade_step);

  // The forecast recovers: the capacity-attributed raise unwinds right
  // here — no calm windows banked, dwell clock not consulted.
  governor.on_capacity_forecast(3e6);
  EXPECT_EQ(governor.proactive_level(), 0);
  EXPECT_EQ(governor.level(), 0);
  EXPECT_EQ(governor.effective_level(), 0);
  EXPECT_EQ(governor.quality(), config.base_quality);
  EXPECT_EQ(governor.stats().proactive_recoveries, 1u);
  EXPECT_EQ(governor.stats().level_drops, 1u);
}

// The guard rail on the fix: a latency-led raise (the forecast predicted
// nothing — proactive level was not leading when the raise happened) still
// recovers only through the calm-window path. A generous forecast must not
// shortcut it.
TEST(QosGovernor, LatencyLedRaiseIgnoresForecastRecovery) {
  auto config = governor_config();
  config.target_fps = 30.0;
  core::QosGovernor governor(config);
  governor.on_frame_bytes(30000, config.base_quality);
  governor.on_capacity_forecast(3e6);  // plenty of capacity all along
  ASSERT_EQ(governor.proactive_level(), 0);

  for (int i = 0; i < 10; ++i) governor.on_frame_displayed(250.0);
  EXPECT_TRUE(governor.evaluate(seconds(1.0), 0.0, 0));
  ASSERT_EQ(governor.level(), config.degrade_step);

  // Capacity was never the cause, so the forecast cannot be the cure.
  governor.on_capacity_forecast(3e6);
  EXPECT_EQ(governor.level(), config.degrade_step);
  EXPECT_EQ(governor.stats().proactive_recoveries, 0u);
}

// --- Turbo encoder quality plumbing ------------------------------------------

TEST(TurboQuality, MidStreamQualityChangeIsDecoderSafe) {
  Image frame(64, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      std::uint8_t* px = frame.pixel(x, y);
      px[0] = static_cast<std::uint8_t>(x * 4);
      px[1] = static_cast<std::uint8_t>(y * 5);
      px[2] = static_cast<std::uint8_t>((x + y) * 2);
      px[3] = 255;
    }
  }
  codec::TurboEncoder encoder;
  codec::TurboDecoder decoder;
  encoder.set_quality(95);
  const Bytes high = encoder.encode(frame);
  encoder.set_quality(25);  // governor degrades mid-stream, no keyframe
  const Bytes low = encoder.encode(frame);
  EXPECT_EQ(encoder.config().quality, 25);
  EXPECT_LT(low.size(), high.size());
  // One decoder instance rides across the quality change: quality lives in
  // each frame header, so the stream needs no resync.
  EXPECT_TRUE(decoder.decode(high).has_value());
  EXPECT_TRUE(decoder.decode(low).has_value());
}

TEST(TurboQuality, SettersClampToValidRange) {
  codec::TurboEncoder encoder;
  encoder.set_quality(0);
  EXPECT_EQ(encoder.config().quality, 1);
  encoder.set_quality(500);
  EXPECT_EQ(encoder.config().quality, 100);
  encoder.set_skip_threshold(-3);
  EXPECT_EQ(encoder.config().skip_threshold, 0);
}

// --- end-to-end overload harness ----------------------------------------------

void issue_tiny_frame(gles::GlesApi& gl) {
  gl.glClearColor(0.5f, 0.5f, 0.5f, 1.0f);
  gl.glClear(gles::GL_COLOR_BUFFER_BIT);
  gl.eglSwapBuffers();
}

core::ServiceRuntimeConfig tiny_service_config() {
  core::ServiceRuntimeConfig config;
  config.nominal_width = 64;
  config.nominal_height = 48;
  config.render_width = 64;
  config.render_height = 48;
  return config;
}

struct OverloadHarness {
  EventLoop loop;
  net::Medium wifi;
  std::unique_ptr<core::ServiceRuntime> service;
  std::unique_ptr<net::ReliableEndpoint> user;
  std::unique_ptr<core::GBoosterRuntime> gbooster;
  int issued = 0;
  std::uint64_t displayed = 0;

  OverloadHarness(core::GBoosterConfig config,
                  core::ServiceRuntimeConfig service_config,
                  double service_fillrate_pps, double workload_pixels)
      : wifi(loop,
             [] {
               net::MediumConfig c;
               c.loss_rate = 0.0;
               c.jitter_ms = 0.0;
               return c;
             }(),
             Rng(4), "wifi") {
    device::DeviceProfile profile = device::nvidia_shield();
    profile.gpu.fillrate_pps = service_fillrate_pps;
    service = std::make_unique<core::ServiceRuntime>(loop, 100, profile,
                                                     service_config);
    service->endpoint().bind(wifi, nullptr);
    wifi.join_group(config.state_group, 100);

    user = std::make_unique<net::ReliableEndpoint>(loop, 1);
    user->bind(wifi, nullptr);
    gbooster = std::make_unique<core::GBoosterRuntime>(
        loop, config, *user,
        std::vector<core::ServiceDeviceInfo>{
            {100, "shield", service_fillrate_pps}});
    user->set_handler([this](net::NodeId src, net::NodeId stream,
                             Bytes message) {
      gbooster->on_message(src, stream, std::move(message));
    });
    gbooster->set_workload_override(
        [workload_pixels] { return workload_pixels; });
    gbooster->set_display_handler(
        [this](std::uint64_t, SimTime, const Image&) { displayed++; });
  }

  // Issues one frame every `interval` until `until_s` of virtual time.
  void drive(SimTime interval, double until_s, double run_until_s) {
    std::function<void()> tick = [this, interval, until_s, &tick] {
      if (loop.now().seconds() >= until_s) return;
      if (gbooster->can_issue_frame()) {
        issue_tiny_frame(gbooster->wrapper());
        ++issued;
      }
      loop.schedule_after(interval, tick);
    };
    tick();
    loop.run_until(seconds(run_until_s));
  }
};

// The app offers frames several times faster than the user CPU can
// serialize them (the dispatch pump is the bottleneck): the governed
// pipeline must shed stale frames keep-latest instead of stalling the app,
// degrade codec quality, and keep the display stream free of gap-timeout
// drops. Dispatched frames are never shed — only queued ones — so the cache
// mirrors stay coherent.
TEST(Overload, GovernorShedsKeepLatestAndDegradesUnderPressure) {
  core::GBoosterConfig config;
  config.nominal_width = 64;
  config.nominal_height = 48;
  config.max_pending_requests = 3;
  config.serialize_throughput_bps = 5e4;  // slow CPU: ~10-40 ms per dispatch
  config.qos.enabled = true;
  config.qos.window = ms(200);
  config.qos.target_p95_ms = 50.0;
  config.qos.min_dwell = ms(200);
  config.qos.depth_overload = 3;
  OverloadHarness harness(config, tiny_service_config(), 6e9, 1e6);
  harness.drive(ms(2), 4.0, 8.0);

  const auto& stats = harness.gbooster->stats();
  EXPECT_GT(harness.issued, 60);
  EXPECT_GT(stats.frames_shed_window, 0u);
  EXPECT_EQ(stats.frames_dropped, 0u);  // sheds are not display-gap drops
  EXPECT_GT(harness.displayed, 0u);
  // Display + sheds account for every issued frame (nothing vanished).
  EXPECT_EQ(harness.displayed + stats.frames_shed_window +
                stats.frames_shed_deadline,
            static_cast<std::uint64_t>(harness.issued));
  const core::QosGovernor& governor = harness.gbooster->governor();
  EXPECT_GT(governor.stats().level_raises, 0u);
  EXPECT_GT(governor.stats().windows_overloaded, 0u);
  // Delivered quality dropped below the base of the ladder.
  ASSERT_GT(stats.quality_samples, 0u);
  EXPECT_LT(static_cast<double>(stats.quality_sum) /
                static_cast<double>(stats.quality_samples),
            static_cast<double>(config.qos.base_quality));
}

// Service-side admission control: a per-user cap of 1 outstanding GPU
// request under the same overload sheds at the service, the shed notices
// flow back flagged (never displayed), and per-user counts reconcile.
TEST(Overload, ServiceAdmissionCapShedsAndNotifies) {
  core::GBoosterConfig config;
  config.nominal_width = 64;
  config.nominal_height = 48;
  config.max_pending_requests = 6;
  auto service_config = tiny_service_config();
  service_config.admission_queue_cap = 1;
  OverloadHarness harness(config, service_config, 16.7e6, 1e6);
  harness.drive(ms(10), 4.0, 8.0);

  const auto& user_stats = harness.gbooster->stats();
  const auto& service_stats = harness.service->stats();
  EXPECT_GT(service_stats.requests_shed_admission, 0u);
  EXPECT_EQ(harness.service->sheds_for_user(1),
            service_stats.requests_shed_admission);
  EXPECT_EQ(user_stats.frames_shed_service,
            service_stats.requests_shed_admission);
  EXPECT_GT(harness.displayed, 0u);
  EXPECT_EQ(user_stats.frames_dropped, 0u);
  // Shed frames never display: displayed + service sheds = issued.
  EXPECT_EQ(harness.displayed + user_stats.frames_shed_service,
            static_cast<std::uint64_t>(harness.issued));
}

// All devices dead with local fallback off: the pipeline sheds at the head
// ("send into the void" becomes an explicit drop) instead of flooding the
// dead device's stream, and the app is never gated — with the governor on,
// and under the null policy too.
TEST(Overload, AllDeadNoFallbackShedsAtHead) {
  for (const bool governed : {true, false}) {
    SCOPED_TRACE(governed ? "qos.enabled = true" : "qos.enabled = false");
    EventLoop loop;
    net::MediumConfig mc;
    mc.loss_rate = 0.0;
    mc.jitter_ms = 0.0;
    net::Medium wifi(loop, mc, Rng(4), "wifi");
    net::FaultPlanConfig fcfg;
    fcfg.outages.push_back({100, seconds(0.3), seconds(1000.0)});
    net::FaultPlan plan(fcfg);
    wifi.set_fault_plan(&plan);

    auto service = std::make_unique<core::ServiceRuntime>(
        loop, 100, device::nvidia_shield(), tiny_service_config());
    service->endpoint().bind(wifi, nullptr);
    service->set_fault_plan(&plan);

    core::GBoosterConfig config;
    config.nominal_width = 64;
    config.nominal_height = 48;
    config.enable_local_fallback = false;
    config.health.probe_interval = ms(50);
    config.health.probe_timeout = ms(100);
    config.qos.enabled = governed;
    net::ReliableEndpoint user(loop, 1);
    user.bind(wifi, nullptr);
    core::GBoosterRuntime gbooster(
        loop, config, user,
        std::vector<core::ServiceDeviceInfo>{{100, "shield", 6e9}});
    user.set_handler([&](net::NodeId src, net::NodeId stream, Bytes message) {
      gbooster.on_message(src, stream, std::move(message));
    });

    int issued = 0;
    int refused = 0;
    std::function<void()> tick = [&] {
      if (loop.now().seconds() >= 3.0) return;
      if (gbooster.can_issue_frame()) {
        issue_tiny_frame(gbooster.wrapper());
        ++issued;
      } else {
        ++refused;
      }
      loop.schedule_after(ms(50), tick);
    };
    tick();
    loop.run_until(seconds(6.0));

    const auto& stats = gbooster.stats();
    EXPECT_GT(stats.frames_shed_void, 0u);
    EXPECT_GT(stats.frames_displayed, 0u);  // pre-crash frames
    EXPECT_EQ(stats.frames_rendered_locally, 0u);
    // The void-shed gate keeps admitting: the app never piles up against a
    // full window of undeliverable frames.
    EXPECT_EQ(refused, 0);
    EXPECT_GT(issued, 40);
  }
}

// --- determinism & equivalence contracts --------------------------------------

sim::SessionConfig overload_session_config() {
  sim::SessionConfig config;
  config.workload = apps::g2_modern_combat();
  config.user_device = device::nexus5();
  config.service_devices = {device::nvidia_shield()};
  config.duration_s = 12.0;
  config.seed = 7;
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 6;
  return config;
}

void expect_identical_results(const sim::SessionResult& a,
                              const sim::SessionResult& b) {
  EXPECT_EQ(a.metrics.frames_displayed, b.metrics.frames_displayed);
  EXPECT_EQ(a.metrics.median_fps, b.metrics.median_fps);
  EXPECT_EQ(a.metrics.avg_response_ms, b.metrics.avg_response_ms);
  EXPECT_EQ(a.metrics.p95_response_ms, b.metrics.p95_response_ms);
  EXPECT_EQ(a.metrics.stall_seconds, b.metrics.stall_seconds);
  EXPECT_EQ(a.gbooster.frames_offloaded, b.gbooster.frames_offloaded);
  EXPECT_EQ(a.gbooster.bytes_sent, b.gbooster.bytes_sent);
  EXPECT_EQ(a.gbooster.bytes_received, b.gbooster.bytes_received);
  EXPECT_EQ(a.gbooster.frames_shed_window, b.gbooster.frames_shed_window);
  EXPECT_EQ(a.gbooster.frames_shed_deadline, b.gbooster.frames_shed_deadline);
  EXPECT_EQ(a.gbooster.frames_shed_service, b.gbooster.frames_shed_service);
  EXPECT_EQ(a.gbooster.quality_sum, b.gbooster.quality_sum);
  EXPECT_EQ(a.gbooster.quality_samples, b.gbooster.quality_samples);
  EXPECT_EQ(a.gbooster.issue_stalls, b.gbooster.issue_stalls);
  EXPECT_EQ(a.requests_shed_admission, b.requests_shed_admission);
}

// A qos config that is populated but disabled is the null policy: every
// session runs the one deferred-encode dispatch queue, and with the governor
// off its knobs must not reach it — the same outcome as the default config,
// no sheds and no quality overrides.
TEST(OverloadDeterminism, DisabledGovernorReproducesLegacyPipeline) {
  const sim::SessionResult legacy = run_session(overload_session_config());
  auto configured = overload_session_config();
  configured.gbooster.qos.enabled = false;
  configured.gbooster.qos.target_p95_ms = 10.0;  // would bite if enabled
  configured.gbooster.qos.window = ms(100);
  configured.gbooster.qos.depth_overload = 1;
  const sim::SessionResult with_disabled_qos = run_session(configured);
  expect_identical_results(legacy, with_disabled_qos);
  EXPECT_EQ(with_disabled_qos.gbooster.frames_shed_window, 0u);
  EXPECT_EQ(with_disabled_qos.gbooster.quality_samples, 0u);
}

// Governed sessions stay bit-identical across service worker-thread counts:
// every governor decision reads sim-clock state only, and the parallel
// raster/codec stages are bit-identical by contract (test_parallel.cc).
TEST(OverloadDeterminism, GovernedSessionIdenticalAcrossWorkerThreads) {
  auto base = overload_session_config();
  base.gbooster.qos.enabled = true;
  base.gbooster.qos.target_p95_ms = 60.0;
  base.service.admission_queue_cap = 4;

  auto serial = base;
  serial.service.worker_threads = 1;
  const sim::SessionResult one = run_session(serial);

  auto threaded = base;
  threaded.service.worker_threads = 4;
  const sim::SessionResult four = run_session(threaded);

  expect_identical_results(one, four);
}

}  // namespace
}  // namespace gb
