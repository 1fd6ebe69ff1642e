// Fault-recovery benchmark (DESIGN.md §8): quantifies what device failures
// cost the player — dropped frames, display stall time, p99 frame latency —
// across failure scenarios and service-device counts.
//
// Scenarios:
//   none           healthy baseline
//   burst          Gilbert–Elliott burst loss on both media
//   crash          device 0 crashes mid-session and never returns
//   crash-recover  device 0 crashes mid-session and returns later
//   flap           the user's WiFi radio dies mid-session (transport A/B)
//
//   ./bench_fault_recovery                      # console table
//   ./bench_fault_recovery --benchmark_format=json
//
// Environment knobs: GB_QUICK=1 / GB_DURATION=<sec> (see bench_util.h).
#include <benchmark/benchmark.h>

#include <string>

#include "bench_counters.h"
#include "bench_util.h"

using namespace gb;

namespace {

enum Scenario : int {
  kNone = 0,
  kBurst = 1,
  kCrash = 2,
  kCrashRecover = 3,
  kFlap = 4,  // WiFi radio flap mid-session (transport A/B only)
};

// Transport configurations for the §13 A/B: the pure-ARQ single-route
// baseline vs. FEC parity groups + multipath striping across WiFi and
// Bluetooth.
enum Transport : int { kPureArq = 0, kFecMultipath = 1 };

void apply_transport(sim::SessionConfig& config, int transport) {
  if (transport != kFecMultipath) return;
  config.switcher.policy = core::SwitchPolicy::kMultipath;
  config.transport.fec_group_size = 4;
  config.service.transport.fec_group_size = 4;
}

sim::SessionConfig scenario_config(int scenario, int devices,
                                   double duration_s) {
  sim::SessionConfig config =
      bench::paper_config(apps::g1_gta_san_andreas(), device::nexus5(),
                          duration_s);
  for (int d = 0; d < devices; ++d) {
    config.service_devices.push_back(device::nvidia_shield());
  }
  switch (scenario) {
    case kNone:
      break;
    case kBurst:
      config.fault_burst.enabled = true;
      config.fault_burst.p_enter_burst = 0.005;
      config.fault_burst.p_exit_burst = 0.05;
      config.fault_burst.loss_burst = 0.8;
      break;
    case kCrash:
      config.service_outages.push_back(
          {0, duration_s * 0.4, duration_s + 1.0});
      break;
    case kCrashRecover:
      config.service_outages.push_back(
          {0, duration_s * 0.4, duration_s * 0.6});
      break;
    case kFlap:
      // The user's WiFi dies for 20% of the session mid-way; Bluetooth
      // stays up. Single-route transports stall on RTO repair storms, the
      // multipath transport reroutes.
      config.link_flaps.push_back({0, duration_s * 0.4, duration_s * 0.6});
      break;
    default:
      break;
  }
  // Per-stage latency breakdown rides along in every scenario's JSON —
  // recovery work shows up as which stage absorbed the failure, not just as
  // a fatter p99.
  config.collect_stage_breakdown = true;
  return config;
}

void BM_FaultRecovery(benchmark::State& state) {
  const int scenario = static_cast<int>(state.range(0));
  const int devices = static_cast<int>(state.range(1));
  const double duration_s = bench::default_duration(40.0);
  sim::SessionResult result;
  for (auto _ : state) {
    result = sim::run_session(scenario_config(scenario, devices, duration_s));
  }
  state.counters["fps"] = result.metrics.median_fps;
  state.counters["frames_dropped"] =
      static_cast<double>(result.gbooster.frames_dropped);
  state.counters["stall_s"] = result.metrics.stall_seconds;
  state.counters["max_gap_s"] = result.metrics.max_display_gap_s;
  state.counters["p99_ms"] = result.metrics.p99_response_ms;
  state.counters["redispatched"] =
      static_cast<double>(result.gbooster.frames_redispatched);
  state.counters["local_frames"] =
      static_cast<double>(result.gbooster.frames_rendered_locally);
  state.counters["failovers"] =
      static_cast<double>(result.gbooster.device_failovers);
  state.counters["epoch_resets"] =
      static_cast<double>(result.gbooster.render_epoch_resets +
                          result.gbooster.state_epoch_resets);
  bench::report_stage_breakdown(state, result.metrics);
  bench::report_transport(state, result);
}

// Transport comparison (DESIGN.md §13): pure-ARQ single-route vs. XOR-FEC +
// multipath striping under burst loss and a WiFi radio flap. The robustness
// claim in EXPERIMENTS.md quotes these rows: under `burst`, FEC+multipath
// must beat pure ARQ on stall time and p99 while the parity overhead column
// shows what that cost on the wire.
void BM_TransportComparison(benchmark::State& state) {
  const int scenario = static_cast<int>(state.range(0));
  const int transport = static_cast<int>(state.range(1));
  const double duration_s = bench::default_duration(40.0);
  sim::SessionResult result;
  for (auto _ : state) {
    sim::SessionConfig config =
        scenario_config(scenario, /*devices=*/2, duration_s);
    apply_transport(config, transport);
    result = sim::run_session(config);
  }
  state.counters["fps"] = result.metrics.median_fps;
  state.counters["stall_s"] = result.metrics.stall_seconds;
  state.counters["max_gap_s"] = result.metrics.max_display_gap_s;
  state.counters["p99_ms"] = result.metrics.p99_response_ms;
  state.counters["frames_dropped"] =
      static_cast<double>(result.gbooster.frames_dropped);
  state.counters["abandoned"] =
      static_cast<double>(result.transport.messages_abandoned +
                          result.service_transport.messages_abandoned);
  bench::report_transport(state, result);
}

// State-loss recovery (DESIGN.md §10): the crash and crash-recover
// scenarios healed by per-straggler GL-state snapshot resync, the rows
// EXPERIMENTS.md's recovery comparison sets against a fleet-wide
// state-epoch reset. The correctness half is pinned bit-for-bit by
// `tests/test_snapshot.cc` (SnapshotResync.*BitIdenticalFrames).
void BM_RecoveryComparison(benchmark::State& state) {
  const int scenario = static_cast<int>(state.range(0));
  const int devices = static_cast<int>(state.range(1));
  const double duration_s = bench::default_duration(40.0);
  sim::SessionResult result;
  for (auto _ : state) {
    result = sim::run_session(scenario_config(scenario, devices, duration_s));
  }
  state.counters["fps"] = result.metrics.median_fps;
  state.counters["stall_s"] = result.metrics.stall_seconds;
  state.counters["p99_ms"] = result.metrics.p99_response_ms;
  state.counters["snapshots_sent"] =
      static_cast<double>(result.gbooster.snapshots_sent);
  state.counters["scoped_recoveries"] =
      static_cast<double>(result.gbooster.scoped_state_recoveries);
  state.counters["state_epoch_resets"] =
      static_cast<double>(result.gbooster.state_epoch_resets);
  state.counters["state_hit_rate"] = result.gbooster.state_cache.hit_rate();
  state.counters["bytes_sent"] =
      static_cast<double>(result.gbooster.bytes_sent);
  state.counters["frames_dropped"] =
      static_cast<double>(result.gbooster.frames_dropped);
  state.counters["redispatched"] =
      static_cast<double>(result.gbooster.frames_redispatched);
  state.counters["max_gap_s"] = result.metrics.max_display_gap_s;
}

}  // namespace

BENCHMARK(BM_FaultRecovery)
    ->ArgNames({"scenario", "devices"})
    ->ArgsProduct({{kNone, kBurst, kCrash, kCrashRecover}, {1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TransportComparison)
    ->ArgNames({"scenario", "transport"})
    ->ArgsProduct({{kNone, kBurst, kFlap}, {kPureArq, kFecMultipath}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_RecoveryComparison)
    ->ArgNames({"scenario", "devices"})
    ->ArgsProduct({{kCrash, kCrashRecover}, {2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
