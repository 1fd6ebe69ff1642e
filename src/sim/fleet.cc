#include "sim/fleet.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/error.h"
#include "sim/testbed.h"

namespace gb::sim {
namespace {

constexpr net::NodeId kFirstDeviceNode = 100;

// One user's session: the stack, built at the user's arrival so placement
// sees the fleet as it is then, and its measurement state.
struct FleetUser {
  FleetUser(EventLoop& loop, double end_s) : pacer(loop, end_s) {}

  std::unique_ptr<UserStack> stack;
  AppPacer pacer;
  MetricsCollector metrics;
  std::vector<double> display_times_s;  // sim clock of each display
};

}  // namespace

core::ServiceRuntime::SizeModel fleet_analytic_size_model() {
  return [](const core::ParsedRender& render) {
    // Result frames of richer scenes (more draws, more fresh command bytes)
    // encode larger, but sub-linearly — the same empirical shape the real
    // codec shows across resolutions. The constants land a typical frame in
    // the same few-KB band a 96x72 Turbo-encoded frame occupies, so analytic
    // runs stress transport and queues at realistic message sizes.
    const std::size_t command_bytes = render.records.total_bytes();
    const std::size_t draws = render.records.records.size();
    return static_cast<std::uint32_t>(900 + draws * 12 + command_bytes / 8);
  };
}

FleetScenarioResult run_fleet_scenario(const FleetScenarioConfig& config) {
  check(!config.users.empty(), "fleet scenario needs at least one user");
  check(!config.devices.empty(), "fleet scenario needs at least one device");
  EventLoop loop;
  Rng rng(config.seed);

  core::ServiceRuntimeConfig service_config;
  service_config.render_width = config.render_width;
  service_config.render_height = config.render_height;
  service_config.content_sample_every = config.content_sample_every;
  service_config.shared_store =
      dedup_registry(config.shared_dedup, config.shared_store);
  SharedWifiFleet devices(loop, rng.fork(), service_config, config.devices,
                          kFirstDeviceNode, config.max_sessions_per_device);
  core::ServiceFleet& fleet = devices.fleet;

  std::deque<FleetUser> users;
  for (std::size_t u = 0; u < config.users.size(); ++u) {
    users.emplace_back(loop, config.duration_s);
  }
  FleetScenarioResult result;
  result.migrations_per_user.assign(config.users.size(), 0);
  // Per-migration frames_lost baselines, filled when the event fires.
  std::vector<std::uint64_t> lost_baseline;

  // --- arrival: place the session, build the stack ---------------------------
  auto arrive = [&](std::size_t u) {
    const FleetUserSpec& spec = config.users[u];
    const net::NodeId node = static_cast<net::NodeId>(1 + u);
    const double workload = spec.workload.gpu_workload_pixels;
    const auto placed = fleet.place_session(node, workload);
    if (!placed.has_value()) return;  // every device at its session cap

    UserStackSpec stack_spec;
    stack_spec.node = node;
    stack_spec.name = "user" + std::to_string(u);
    stack_spec.wifi = &devices.wifi;
    stack_spec.gbooster.max_pending_requests = kMultiUserMaxPending;
    stack_spec.gbooster.state_group = 0xff00 + static_cast<net::NodeId>(u);
    stack_spec.gbooster.qos = config.qos;
    stack_spec.gbooster.enable_local_fallback = false;
    if (config.shared_dedup) {
      stack_spec.gbooster.shared_dedup = true;
      stack_spec.gbooster.app_id = spec.app_id;
    }
    stack_spec.devices = {fleet.device_info(*placed)};
    stack_spec.workload_pixels = [workload] { return workload; };
    stack_spec.app = spec.workload;
    stack_spec.touch =
        touch_script_config(spec.workload, config.duration_s - spec.arrive_s);
    FleetUser& user = users[u];
    user.stack = std::make_unique<UserStack>(loop, stack_spec, rng);
    user.stack->gbooster.set_display_handler(
        [&loop, &user](std::uint64_t, SimTime latency, const Image&) {
          user.metrics.on_frame_displayed(loop.now(), latency);
          user.display_times_s.push_back(loop.now().seconds());
          user.pacer.on_display();
        });
    user.pacer.start(*user.stack,
                     spec.workload.cpu_frame_seconds / spec.phone.cpu_perf_index,
                     seconds(1.0 / spec.workload.target_fps));
  };

  for (std::size_t u = 0; u < config.users.size(); ++u) {
    const FleetUserSpec& spec = config.users[u];
    loop.schedule_at(seconds(spec.arrive_s), [&, u] { arrive(u); });
    if (spec.depart_s > 0.0) {
      loop.schedule_at(seconds(spec.depart_s), [&, u] {
        if (users[u].stack == nullptr) return;
        users[u].pacer.stop();
        fleet.release_session(static_cast<net::NodeId>(1 + u));
      });
    }
  }

  // --- scripted migrations to the coolest other device -----------------------
  for (const FleetMigrationSpec& spec : config.migrations) {
    check(spec.user_index < config.users.size(),
          "migration user index out of range");
    loop.schedule_at(seconds(spec.at_s), [&, spec] {
      FleetUser& user = users[spec.user_index];
      const net::NodeId node = static_cast<net::NodeId>(1 + spec.user_index);
      const auto from = fleet.session_device(node);
      if (user.stack == nullptr || !from.has_value()) return;
      const auto to = fleet.coolest_with_headroom(
          config.users[spec.user_index].workload.gpu_workload_pixels, from);
      if (!to.has_value() ||
          !migrate_session(loop, fleet, *user.stack, user.pacer, node, *to,
                           spec.cold)) {
        return;
      }
      result.migrations_per_user[spec.user_index]++;
      result.migrations.push_back(FleetMigrationOutcome{
          spec.user_index, spec.at_s, *from, *to, spec.cold});
      lost_baseline.push_back(user.stack->frames_lost());
    });
  }

  loop.run_until(seconds(config.duration_s));

  // --- results ---------------------------------------------------------------
  for (const FleetUser& user : users) {
    const bool arrived = user.stack != nullptr;
    const LatencySummary latency = user.metrics.latency_summary();
    result.per_user.push_back(
        arrived ? user.metrics.finalize(seconds(config.duration_s))
                : SessionMetrics{});
    result.mean_latency_ms.push_back(latency.mean_ms);
    result.p95_latency_ms.push_back(latency.p95_ms);
    result.p99_latency_ms.push_back(latency.p99_ms);
    result.frames_displayed_per_user.push_back(user.display_times_s.size());
    result.frames_lost_per_user.push_back(arrived ? user.stack->frames_lost()
                                                  : 0);
  }
  for (std::size_t m = 0; m < result.migrations.size(); ++m) {
    FleetMigrationOutcome& outcome = result.migrations[m];
    const FleetUser& user = users[outcome.user_index];
    // Longest display gap whose interval intersects the migration window.
    const double w0 = outcome.at_s - 0.5;
    const double w1 = outcome.at_s + 3.0;
    double worst = 0.0;
    double prev = -1.0;
    for (const double t : user.display_times_s) {
      if (prev >= 0.0 && t > w0 && prev < w1) {
        worst = std::max(worst, t - prev);
      }
      prev = t;
    }
    // Tail: nothing displayed again before the end of the run.
    if (prev >= 0.0 && prev < w1) {
      worst = std::max(worst, config.duration_s - prev);
    }
    outcome.blackout_ms = worst * 1000.0;
    outcome.frames_lost = user.stack->frames_lost() - lost_baseline[m];
  }
  for (std::size_t d = 0; d < fleet.device_count(); ++d) {
    result.final_sessions_per_device.push_back(fleet.session_count(d));
    core::ServiceRuntime& rt = fleet.runtime(d);
    rt.gpu().sync();
    result.device_busy_fraction.push_back(rt.gpu().busy_seconds() /
                                          config.duration_s);
    result.users_released_per_device.push_back(rt.stats().users_released);
    result.renders_dropped_unresolvable_per_device.push_back(
        rt.stats().renders_dropped_unresolvable);
    result.joins_answered_per_device.push_back(rt.stats().joins_answered);
  }
  result.fleet = fleet.stats();
  return result;
}

}  // namespace gb::sim
