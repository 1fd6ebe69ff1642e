// Tests for the extension features (multi-user scheduling, dispatch-policy
// ablation) plus robustness properties: determinism of whole sessions and
// fuzzing of the wire/codec/shader entry points.
#include <gtest/gtest.h>

#include <set>

#include "apps/workload.h"
#include "common/rng.h"
#include "core/dispatcher.h"
#include "core/offload_protocol.h"
#include "device/device_profiles.h"
#include "device/gpu_model.h"
#include "gles/direct_backend.h"
#include "gles/shader.h"
#include "sim/multiuser.h"
#include "sim/session.h"
#include "wire/decoder.h"
#include "test_support.h"

namespace gb {
namespace {

// --- GPU priority scheduling (§VIII) -----------------------------------------

TEST(GpuPriority, UrgentRequestOvertakesQueuedWork) {
  EventLoop loop;
  device::GpuConfig config;
  config.fillrate_pps = 1e9;
  config.scheduling = device::GpuScheduling::kPriority;
  config.thermal.heating_rate_c_per_s = 0.0;
  device::GpuModel gpu(loop, config);
  std::vector<int> order;
  gpu.submit(50e6, [&] { order.push_back(0); }, /*priority=*/1);  // starts now
  gpu.submit(50e6, [&] { order.push_back(1); }, /*priority=*/1);  // queued
  gpu.submit(50e6, [&] { order.push_back(2); }, /*priority=*/0);  // urgent
  loop.run_until(seconds(1.0));
  // Non-preemptive: request 0 finishes, then the urgent one jumps ahead.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(GpuPriority, FifoWithinPriorityLevel) {
  EventLoop loop;
  device::GpuConfig config;
  config.fillrate_pps = 1e9;
  config.scheduling = device::GpuScheduling::kPriority;
  config.thermal.heating_rate_c_per_s = 0.0;
  device::GpuModel gpu(loop, config);
  std::vector<int> order;
  gpu.submit(10e6, [&] { order.push_back(0); }, 0);
  for (int i = 1; i <= 4; ++i) {
    gpu.submit(10e6, [&, i] { order.push_back(i); }, 0);
  }
  loop.run_until(seconds(1.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(GpuPriority, FcfsIgnoresPriorities) {
  EventLoop loop;
  device::GpuConfig config;
  config.fillrate_pps = 1e9;
  config.scheduling = device::GpuScheduling::kFcfs;
  config.thermal.heating_rate_c_per_s = 0.0;
  device::GpuModel gpu(loop, config);
  std::vector<int> order;
  gpu.submit(50e6, [&] { order.push_back(0); }, 1);
  gpu.submit(50e6, [&] { order.push_back(1); }, 1);
  gpu.submit(50e6, [&] { order.push_back(2); }, 0);
  loop.run_until(seconds(1.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// --- dispatch policies ---------------------------------------------------------

TEST(DispatchPolicy, RoundRobinCyclesAllDevices) {
  core::Dispatcher d({{1, "a", 1e9}, {2, "b", 1e9}, {3, "c", 1e9}},
                     core::DispatchPolicy::kRoundRobin);
  EXPECT_EQ(d.pick(1e6), 0u);
  EXPECT_EQ(d.pick(1e6), 1u);
  EXPECT_EQ(d.pick(1e6), 2u);
  EXPECT_EQ(d.pick(1e6), 0u);
}

TEST(DispatchPolicy, RandomIsDeterministicAndCoversDevices) {
  core::Dispatcher a({{1, "a", 1e9}, {2, "b", 1e9}, {3, "c", 1e9}},
                     core::DispatchPolicy::kRandom);
  core::Dispatcher b({{1, "a", 1e9}, {2, "b", 1e9}, {3, "c", 1e9}},
                     core::DispatchPolicy::kRandom);
  std::set<std::size_t> seen;
  for (int i = 0; i < 64; ++i) {
    const std::size_t pick = a.pick(1e6);
    EXPECT_EQ(pick, b.pick(1e6));
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(DispatchPolicy, Eq4AvoidsWeakDeviceUnderLoad) {
  // Shield vs Minix: Eq. 4 should route the overwhelming majority of heavy
  // requests to the stronger device.
  core::Dispatcher d({{1, "shield", 6.2e9}, {2, "minix", 1.6e9}},
                     core::DispatchPolicy::kEq4);
  int weak_picks = 0;
  for (int i = 0; i < 100; ++i) {
    const std::size_t pick = d.pick(150e6);
    if (pick == 1) ++weak_picks;
    d.on_assigned(pick, 150e6);
    // Steady completion keeps queues bounded.
    d.on_completed(pick, 150e6, ms(30));
  }
  EXPECT_LT(weak_picks, 35);
}

// --- protocol priority -----------------------------------------------------------

TEST(OffloadProtocolPriority, SurvivesRoundTrip) {
  compress::CommandCache tx;
  compress::CommandCache rx;
  compress::CacheStats stats;
  core::RenderRequestHeader header;
  header.sequence = 5;
  header.workload_pixels = 1e6;
  header.priority = 3;
  wire::FrameCommands frame;
  const Bytes message = core::make_render_message(header, frame, tx, stats);
  const auto parsed = core::parse_render_message(message, rx);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.priority, 3);
}

// --- multi-user sessions -----------------------------------------------------------

sim::MultiUserConfig two_user_config(device::GpuScheduling scheduling) {
  sim::MultiUserConfig config;
  config.duration_s = 30.0;
  config.seed = 5;
  config.users.push_back({apps::g3_star_wars_kotor(), device::nexus5(), 0});
  apps::WorkloadSpec chess = apps::g4_final_fantasy();
  chess.gpu_workload_pixels = 140e6;
  chess.target_fps = 10;
  config.users.push_back({chess, device::nexus5(), 1});
  config.users.push_back({chess, device::nexus5(), 1});
  config.service_device = device::nvidia_shield();
  config.service_device.gpu.scheduling = scheduling;
  return config;
}

TEST(MultiUser, SharedServiceServesAllUsersWithoutInterference) {
  // The central correctness property: per-user contexts, caches, and frame
  // ordering stay independent while sharing one GPU and one endpoint.
  const auto result =
      sim::run_multiuser_session(two_user_config(device::GpuScheduling::kFcfs));
  ASSERT_EQ(result.per_user.size(), 3u);
  for (const auto& metrics : result.per_user) {
    EXPECT_GT(metrics.frames_displayed, 100u);
  }
  EXPECT_GT(result.service_gpu_busy_fraction, 0.5);
}

TEST(MultiUser, PriorityFavorsUrgentUser) {
  const auto fcfs =
      sim::run_multiuser_session(two_user_config(device::GpuScheduling::kFcfs));
  const auto prio = sim::run_multiuser_session(
      two_user_config(device::GpuScheduling::kPriority));
  // The urgent user's mean latency must improve; the patient users pay.
  EXPECT_LT(prio.mean_latency_ms[0], fcfs.mean_latency_ms[0]);
  EXPECT_GE(prio.mean_latency_ms[1] + prio.mean_latency_ms[2],
            fcfs.mean_latency_ms[1] + fcfs.mean_latency_ms[2]);
}

// --- whole-session determinism ------------------------------------------------------

TEST(Determinism, IdenticalConfigsProduceIdenticalSessions) {
  sim::SessionConfig config;
  config.workload = apps::g2_modern_combat();
  config.user_device = device::nexus5();
  config.service_devices = {device::nvidia_shield()};
  config.duration_s = 12.0;
  config.seed = 31337;
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 6;
  const sim::SessionResult a = sim::run_session(config);
  const sim::SessionResult b = sim::run_session(config);
  EXPECT_EQ(a.metrics.frames_displayed, b.metrics.frames_displayed);
  EXPECT_DOUBLE_EQ(a.metrics.median_fps, b.metrics.median_fps);
  EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
  EXPECT_EQ(a.gbooster.bytes_sent, b.gbooster.bytes_sent);
  EXPECT_EQ(a.gbooster.bytes_received, b.gbooster.bytes_received);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Offloaded sessions depend on the touch script (scene changes drive
  // texture uploads and traffic), so different seeds must diverge.
  sim::SessionConfig config;
  config.workload = apps::g1_gta_san_andreas();
  config.user_device = device::nexus5();
  config.service_devices = {device::nvidia_shield()};
  config.duration_s = 12.0;
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 6;
  config.seed = 1;
  const sim::SessionResult a = sim::run_session(config);
  config.seed = 2;
  const sim::SessionResult b = sim::run_session(config);
  EXPECT_NE(a.gbooster.bytes_sent, b.gbooster.bytes_sent);
}

// --- fuzzing --------------------------------------------------------------------------
// Each case runs under an address-space cap, so a decoder that sizes an
// allocation from garbage fails the case instead of committing gigabytes.

TEST(Fuzz, ReplayRecordNeverCrashesOnGarbage) {
  const test_support::AddressSpaceCap cap;
  Rng rng(99);
  gles::DirectBackend backend(8, 8, {});
  for (int i = 0; i < 500; ++i) {
    wire::CommandRecord record;
    record.bytes.resize(1 + rng.next_below(64));
    for (auto& b : record.bytes) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    try {
      wire::replay_record(record, backend);
    } catch (const Error&) {
      // Malformed input must fail with gb::Error, nothing else.
    }
  }
  SUCCEED();
}

TEST(Fuzz, ProtocolParsersRejectGarbageGracefully) {
  const test_support::AddressSpaceCap cap;
  Rng rng(123);
  compress::CommandCache cache;
  for (int i = 0; i < 500; ++i) {
    Bytes garbage(1 + rng.next_below(128));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    garbage[0] = static_cast<std::uint8_t>(1 + rng.next_below(3));  // kind
    switch (static_cast<core::MsgKind>(garbage[0])) {
      case core::MsgKind::kState:
        (void)core::parse_state_message(garbage, cache);
        break;
      case core::MsgKind::kRender:
        (void)core::parse_render_message(garbage, cache);
        break;
      case core::MsgKind::kFrame:
        (void)core::parse_frame_message(garbage);
        break;
    }
  }
  SUCCEED();
}

TEST(Fuzz, ShaderCompilerSurvivesTokenSoup) {
  const test_support::AddressSpaceCap cap;
  Rng rng(77);
  const char* fragments[] = {"void",  "main",     "(",        ")",
                             "{",     "}",        "vec4",     "gl_FragColor",
                             "=",     "1.0",      "+",        "*",
                             ";",     "uniform",  "texture2D", ".xy",
                             "float", "varying",  "attribute", ","};
  for (int i = 0; i < 300; ++i) {
    std::string source;
    const int tokens = 1 + static_cast<int>(rng.next_below(40));
    for (int t = 0; t < tokens; ++t) {
      source += fragments[rng.next_below(std::size(fragments))];
      source += ' ';
    }
    std::string log;
    (void)gles::compile_shader(gles::ShaderKind::kFragment, source, log);
  }
  SUCCEED();
}

TEST(Fuzz, TurboDecoderSurvivesBitflips) {
  const test_support::AddressSpaceCap cap;
  codec::TurboEncoder encoder;
  Image img(32, 32);
  img.fill(120, 90, 60);
  Bytes encoded = encoder.encode(img);
  Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    Bytes corrupted = encoded;
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      corrupted[rng.next_below(corrupted.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    codec::TurboDecoder decoder;
    (void)decoder.decode(corrupted);  // must not crash; nullopt is fine
  }
  SUCCEED();
}

}  // namespace
}  // namespace gb
