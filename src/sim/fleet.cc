#include "sim/fleet.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "apps/game_app.h"
#include "apps/touch.h"
#include "common/error.h"
#include "core/gbooster.h"
#include "gles/direct_backend.h"
#include "hooking/dynamic_linker.h"
#include "net/medium.h"
#include "net/radio.h"
#include "net/reliable.h"
#include "runtime/event_loop.h"
#include "runtime/percentile.h"

namespace gb::sim {
namespace {

constexpr net::NodeId kFirstDeviceNode = 100;

// One user device's full stack plus per-run measurement state. Built lazily
// at the user's arrival time so placement sees the fleet as it is then.
struct User {
  std::unique_ptr<net::RadioInterface> radio;
  std::unique_ptr<net::ReliableEndpoint> endpoint;
  std::unique_ptr<core::GBoosterRuntime> gbooster;
  std::unique_ptr<hooking::DynamicLinker> linker;
  std::unique_ptr<gles::DirectBackend> genuine;
  std::unique_ptr<gles::GlesApi> api;
  std::unique_ptr<apps::GameApp> app;
  std::unique_ptr<apps::TouchScript> touch;
  MetricsCollector metrics;
  std::vector<double> latencies_ms;
  std::vector<double> display_times_s;  // wall clock of each display
  double cpu_frame_s = 0.016;
  SimTime next_allowed;
  bool waiting = false;
  bool active = false;  // arrived and not departed
};

[[nodiscard]] std::uint64_t frames_lost_so_far(
    const core::GBoosterRuntime& gbooster) {
  // What the viewer never saw: presenter gap-timeout reclaims plus frames
  // the governor shed because no healthy device existed (the dark window).
  return gbooster.stats().frames_dropped + gbooster.stats().frames_shed_void;
}

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

  net::MediumConfig wifi_config;
  wifi_config.loss_rate = 0.002;
  net::Medium wifi(loop, wifi_config, rng.fork(), "wifi");

  core::ServiceFleetConfig fleet_config;
  fleet_config.service.render_width = config.render_width;
  fleet_config.service.render_height = config.render_height;
  fleet_config.service.content_sample_every = config.content_sample_every;
  std::shared_ptr<compress::SharedStoreRegistry> shared_store =
      config.shared_store;
  if (config.shared_dedup) {
    if (shared_store == nullptr) {
      shared_store = std::make_shared<compress::SharedStoreRegistry>();
    }
    fleet_config.service.shared_store = shared_store;
  }
  std::vector<core::FleetDeviceConfig> device_configs;
  for (std::size_t d = 0; d < config.devices.size(); ++d) {
    device_configs.push_back(core::FleetDeviceConfig{
        kFirstDeviceNode + static_cast<net::NodeId>(d), config.devices[d],
        config.max_sessions_per_device});
  }
  core::ServiceFleet fleet(loop, fleet_config, std::move(device_configs));
  for (std::size_t d = 0; d < fleet.device_count(); ++d) {
    fleet.runtime(d).endpoint().bind(wifi, nullptr);
    if (config.render_width == 0) {
      fleet.runtime(d).set_size_model(fleet_analytic_size_model());
    }
  }

  std::vector<std::unique_ptr<User>> users(config.users.size());
  std::vector<std::function<void()>> attempts(config.users.size());
  FleetScenarioResult result;
  result.migrations_per_user.assign(config.users.size(), 0);
  // Per-migration frames_lost baselines, filled when the event fires.
  std::vector<std::uint64_t> lost_baseline;

  // --- arrival: build the stack, place the session ---------------------------
  auto arrive = [&](std::size_t u) {
    const FleetUserSpec& spec = config.users[u];
    const net::NodeId node = static_cast<net::NodeId>(1 + u);
    const double workload = spec.workload.gpu_workload_pixels;
    const auto placed = fleet.place_session(node, workload);
    if (!placed.has_value()) return;  // every device at its session cap

    auto user = std::make_unique<User>();
    user->radio = std::make_unique<net::RadioInterface>(
        loop, net::wifi_radio_config(), "user" + std::to_string(u) + "-wifi");
    user->endpoint = std::make_unique<net::ReliableEndpoint>(loop, node);
    user->endpoint->bind(wifi, user->radio.get());

    core::GBoosterConfig gb_config;
    gb_config.max_pending_requests = config.max_pending;
    gb_config.state_group = 0xff00 + static_cast<net::NodeId>(u);
    gb_config.qos = config.qos;
    gb_config.enable_local_fallback = false;
    if (config.shared_dedup) {
      gb_config.shared_dedup = true;
      gb_config.app_id = spec.app_id;
    }
    user->gbooster = std::make_unique<core::GBoosterRuntime>(
        loop, gb_config, *user->endpoint,
        std::vector<core::ServiceDeviceInfo>{fleet.device_info(*placed)});
    core::GBoosterRuntime* gbooster = user->gbooster.get();
    user->endpoint->set_handler(
        [gbooster](net::NodeId src, net::NodeId stream, Bytes message) {
          gbooster->on_message(src, stream, std::move(message));
        });
    user->gbooster->set_workload_override([workload] { return workload; });

    user->linker = std::make_unique<hooking::DynamicLinker>();
    user->genuine =
        std::make_unique<gles::DirectBackend>(64, 48, gles::PresentFn{});
    user->linker->register_library(hooking::LibraryImage::exporting_all(
        "libGLESv2.so", user->genuine.get()));
    user->gbooster->install(*user->linker);
    user->api = user->linker->link_gles("libGLESv2.so");

    user->app = std::make_unique<apps::GameApp>(spec.workload, *user->api,
                                                600, 480, rng.fork());
    user->app->setup();
    apps::TouchScriptConfig touch_config;
    touch_config.duration_s = config.duration_s - spec.arrive_s;
    touch_config.burst_rate_hz = spec.workload.burst_rate_hz;
    touch_config.burst_duration_s = spec.workload.burst_duration_s;
    user->touch = std::make_unique<apps::TouchScript>(touch_config, rng.fork());
    user->cpu_frame_s =
        spec.workload.cpu_frame_seconds / spec.phone.cpu_perf_index;
    user->active = true;

    User* raw = user.get();
    const SimTime min_interval = seconds(1.0 / spec.workload.target_fps);
    attempts[u] = [&, raw, u, min_interval] {
      if (!raw->active || loop.now().seconds() >= config.duration_s) return;
      if (!raw->gbooster->can_issue_frame()) {
        // Wake on the next display, with a timed backstop: a dark slot can
        // strand every pending frame, in which case no display ever comes.
        if (!raw->waiting) {
          raw->waiting = true;
          loop.schedule_after(min_interval, [&, raw, u] {
            if (raw->waiting) {
              raw->waiting = false;
              attempts[u]();
            }
          });
        }
        return;
      }
      loop.schedule_after(seconds(raw->cpu_frame_s), [&, raw, u,
                                                      min_interval] {
        if (!raw->active) return;
        const double now_s = loop.now().seconds();
        raw->app->render_frame(now_s, raw->touch->burst_active(now_s));
        const SimTime next =
            std::max(loop.now(), raw->next_allowed + min_interval);
        raw->next_allowed = next;
        loop.schedule_at(next, [&, u] { attempts[u](); });
      });
    };
    user->gbooster->set_display_handler(
        [&, raw, u](std::uint64_t, SimTime latency, const Image&) {
          raw->metrics.on_frame_displayed(loop.now(), latency);
          raw->latencies_ms.push_back(latency.ms());
          raw->display_times_s.push_back(loop.now().seconds());
          if (raw->waiting) {
            raw->waiting = false;
            attempts[u]();
          }
        });
    users[u] = std::move(user);
    attempts[u]();
  };

  for (std::size_t u = 0; u < config.users.size(); ++u) {
    const FleetUserSpec& spec = config.users[u];
    loop.schedule_at(seconds(spec.arrive_s), [&, u] { arrive(u); });
    if (spec.depart_s > 0.0) {
      loop.schedule_at(seconds(spec.depart_s), [&, u] {
        if (users[u] == nullptr || !users[u]->active) return;
        users[u]->active = false;
        fleet.release_session(static_cast<net::NodeId>(1 + u));
      });
    }
  }

  // --- scripted migrations ---------------------------------------------------
  for (const FleetMigrationSpec& spec : config.migrations) {
    check(spec.user_index < config.users.size(),
          "migration user index out of range");
    loop.schedule_at(seconds(spec.at_s), [&, spec] {
      User* user = users[spec.user_index].get();
      if (user == nullptr || !user->active) return;
      const net::NodeId node = static_cast<net::NodeId>(1 + spec.user_index);
      const auto from = fleet.session_device(node);
      if (!from.has_value()) return;
      const double workload =
          config.users[spec.user_index].workload.gpu_workload_pixels;
      std::size_t to = fleet.device_count();
      if (spec.to_device >= 0) {
        to = static_cast<std::size_t>(spec.to_device);
      } else {
        // Coolest device with session headroom, source excluded.
        double best_score = 0.0;
        for (std::size_t j = 0; j < fleet.device_count(); ++j) {
          if (j == *from) continue;
          if (fleet.session_count(j) >=
              static_cast<std::size_t>(fleet.device_config(j).max_sessions)) {
            continue;
          }
          const double score = fleet.placement_score(j, workload);
          if (to == fleet.device_count() || score < best_score) {
            to = j;
            best_score = score;
          }
        }
      }
      if (to >= fleet.device_count() || to == *from) return;

      core::MigrationOptions options;
      options.cold_restart = spec.cold;
      options.reconnect_delay = seconds(spec.reconnect_delay_s);
      options.drain_timeout = seconds(spec.drain_s);
      user->gbooster->migrate_service_device(0, fleet.device_info(to),
                                             options);
      fleet.register_session(node, to);
      result.migrations_per_user[spec.user_index]++;
      FleetMigrationOutcome outcome;
      outcome.user_index = spec.user_index;
      outcome.at_s = spec.at_s;
      outcome.from_device = *from;
      outcome.to_device = to;
      outcome.cold = spec.cold;
      result.migrations.push_back(outcome);
      lost_baseline.push_back(frames_lost_so_far(*user->gbooster));
      // The source runtime keeps the session through the drain window (its
      // in-flight results are still displaying), then releases it — closing
      // the shared-store lease, which is what makes its proof-covered
      // records evictable (the §14 lifecycle the client-side invalidation
      // guards against). Cold mode abandoned everything up front.
      const double release_delay_s = spec.cold ? 0.0 : spec.drain_s + 0.1;
      const std::size_t source = *from;
      loop.schedule_after(seconds(release_delay_s), [&, node, source] {
        (void)fleet.runtime(source).release_user(node);
      });
    });
  }

  loop.run_until(seconds(config.duration_s));

  // --- results ---------------------------------------------------------------
  for (std::size_t u = 0; u < config.users.size(); ++u) {
    SessionMetrics metrics;
    double mean = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t displayed = 0;
    std::uint64_t lost = 0;
    if (users[u] != nullptr) {
      User& user = *users[u];
      metrics = user.metrics.finalize(seconds(config.duration_s));
      displayed = user.display_times_s.size();
      lost = frames_lost_so_far(*user.gbooster);
      if (!user.latencies_ms.empty()) {
        for (const double v : user.latencies_ms) mean += v;
        mean /= static_cast<double>(user.latencies_ms.size());
        std::vector<double> sorted = user.latencies_ms;
        std::sort(sorted.begin(), sorted.end());
        p95 = runtime::percentile_sorted(sorted, 0.95);
        p99 = runtime::percentile_sorted(sorted, 0.99);
      }
    }
    result.per_user.push_back(metrics);
    result.mean_latency_ms.push_back(mean);
    result.p95_latency_ms.push_back(p95);
    result.p99_latency_ms.push_back(p99);
    result.frames_displayed_per_user.push_back(displayed);
    result.frames_lost_per_user.push_back(lost);
  }
  for (std::size_t m = 0; m < result.migrations.size(); ++m) {
    FleetMigrationOutcome& outcome = result.migrations[m];
    const User* user = users[outcome.user_index].get();
    if (user == nullptr) continue;
    // Longest display gap whose interval intersects the migration window.
    const double w0 = outcome.at_s - 0.5;
    const double w1 = outcome.at_s + 3.0;
    double worst = 0.0;
    double prev = -1.0;
    for (const double t : user->display_times_s) {
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
    outcome.frames_lost =
        frames_lost_so_far(*user->gbooster) - lost_baseline[m];
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
