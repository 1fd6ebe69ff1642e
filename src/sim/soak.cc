#include "sim/soak.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/game_app.h"
#include "apps/touch.h"
#include "apps/workload.h"
#include "common/error.h"
#include "compress/shared_store.h"
#include "core/gbooster.h"
#include "gles/direct_backend.h"
#include "hooking/dynamic_linker.h"
#include "net/medium.h"
#include "net/radio.h"
#include "net/reliable.h"
#include "runtime/event_loop.h"
#include "runtime/invariant_audit.h"
#include "runtime/percentile.h"
#include "runtime/trace.h"
#include "sim/fleet.h"

namespace gb::sim {
namespace {

// High enough that hundreds of user slots (node == 1 + slot) can never
// collide with a fleet device's node id.
constexpr net::NodeId kFirstDeviceNode = 100000;

// One live session's full user-side stack. Unlike the fleet harness, these
// are destroyed at departure and rebuilt at respawn — teardown is the point.
struct User {
  std::unique_ptr<net::RadioInterface> radio;
  std::unique_ptr<net::ReliableEndpoint> endpoint;
  std::unique_ptr<core::GBoosterRuntime> gbooster;
  std::unique_ptr<hooking::DynamicLinker> linker;
  std::unique_ptr<gles::DirectBackend> genuine;
  std::unique_ptr<gles::GlesApi> api;
  std::unique_ptr<apps::GameApp> app;
  std::unique_ptr<apps::TouchScript> touch;
  double cpu_frame_s = 0.016;
  SimTime next_allowed;
  bool waiting = false;
};

// A session slot. The node id (1 + slot index) is *reused* across the slot's
// successive sessions; `generation` invalidates every closure a torn-down
// session may have left in the event loop.
struct Slot {
  std::unique_ptr<User> user;
  std::uint64_t generation = 0;
  double base_workload = 0.0;
  bool active = false;
};

[[nodiscard]] std::uint64_t frames_lost_so_far(
    const core::GBoosterRuntime& gbooster) {
  return gbooster.stats().frames_dropped + gbooster.stats().frames_shed_void;
}

// Per-gauge drift summary accumulator.
struct DriftTrack {
  double at10 = -1.0;
  double high_water = 0.0;
  double final_value = 0.0;
};

class Fnv1a {
 public:
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void fold_ms(double v) {  // quantize to microseconds-of-a-ms scale
    fold(static_cast<std::uint64_t>(std::llround(v * 1000.0)));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

[[nodiscard]] std::string slot_label(std::size_t s) {
  return "slot" + std::to_string(s);
}

}  // namespace

SoakReport run_soak(const SoakPlan& plan) {
  check(plan.churn.slots > 0, "soak needs at least one session slot");
  check(plan.duration_s > 0.0, "soak needs a positive duration");
  check(plan.audit_interval_s > 0.0, "soak needs a positive audit interval");

  EventLoop loop;
  Rng rng(plan.seed);
  SoakReport report;

  const std::vector<apps::WorkloadSpec> catalog = {
      apps::g1_gta_san_andreas(), apps::g2_modern_combat(),
      apps::g3_star_wars_kotor(), apps::g4_final_fantasy(),
      apps::g5_candy_crush(),     apps::g6_cut_the_rope()};

  std::vector<device::DeviceProfile> profiles = plan.devices;
  if (profiles.empty()) {
    // Two actively cooled boxes plus the Fig. 1 passively cooled phone: the
    // phone genuinely throttles under sustained tenancy, so the thermal axis
    // and the balancer's hot-spot drain both exercise for real.
    profiles = {device::nvidia_shield(), device::minix_neo_u1(),
                device::lg_g4()};
  }

  // --- network + faults ------------------------------------------------------
  net::MediumConfig wifi_config;
  wifi_config.loss_rate = 0.002;
  net::Medium wifi(loop, wifi_config, rng.fork(), "wifi");

  net::FaultPlanConfig fault_config;
  fault_config.seed = plan.seed ^ 0x50a4c4a05ull;
  if (plan.faults.enabled) {
    fault_config.burst = plan.faults.burst;
    Rng fault_rng = rng.fork();
    if (plan.faults.link_flap_every_s > 0.0) {
      double t = plan.faults.link_flap_every_s * fault_rng.uniform(0.5, 1.5);
      while (t < plan.duration_s) {
        net::LinkOutageWindow w;
        w.link = 0;
        w.node = static_cast<net::NodeId>(
            1 + fault_rng.next_below(plan.churn.slots));
        w.start = seconds(t);
        w.end = seconds(t + plan.faults.link_flap_duration_s);
        fault_config.link_outages.push_back(w);
        t += plan.faults.link_flap_every_s * fault_rng.uniform(0.5, 1.5);
      }
    }
    if (plan.faults.device_outage_every_s > 0.0) {
      double t = plan.faults.device_outage_every_s * fault_rng.uniform(0.75, 1.25);
      while (t < plan.duration_s) {
        net::OutageWindow w;
        w.node = kFirstDeviceNode + static_cast<net::NodeId>(
                                        fault_rng.next_below(profiles.size()));
        w.start = seconds(t);
        w.end = seconds(t + plan.faults.device_outage_duration_s);
        fault_config.outages.push_back(w);
        t += plan.faults.device_outage_every_s * fault_rng.uniform(0.75, 1.25);
      }
    }
  }
  net::FaultPlan faults(fault_config);
  if (plan.faults.enabled) wifi.set_fault_plan(&faults, 0);

  // --- fleet -----------------------------------------------------------------
  runtime::Tracer tracer;
  core::ServiceFleetConfig fleet_config;
  fleet_config.service.render_width = plan.render_width;
  fleet_config.service.render_height = plan.render_height;
  fleet_config.service.content_sample_every = plan.render_width == 0 ? 1 : 8;
  if (plan.attach_tracer) fleet_config.service.tracer = &tracer;
  std::shared_ptr<compress::SharedStoreRegistry> registry;
  if (plan.shared_dedup) {
    registry = std::make_shared<compress::SharedStoreRegistry>();
    fleet_config.service.shared_store = registry;
  }
  std::vector<core::FleetDeviceConfig> device_configs;
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    device_configs.push_back(core::FleetDeviceConfig{
        kFirstDeviceNode + static_cast<net::NodeId>(d), profiles[d],
        plan.max_sessions_per_device});
  }
  core::ServiceFleet fleet(loop, fleet_config, std::move(device_configs));
  for (std::size_t d = 0; d < fleet.device_count(); ++d) {
    fleet.runtime(d).endpoint().bind(wifi, nullptr);
    if (plan.render_width == 0) {
      fleet.runtime(d).set_size_model(fleet_analytic_size_model());
    }
    if (plan.faults.enabled) fleet.runtime(d).set_fault_plan(&faults);
  }

  // --- invariant auditor: fleet-lifetime probes ------------------------------
  runtime::InvariantAuditor auditor;
  fleet.register_invariant_probes(auditor, "fleet");
  const double population =
      static_cast<double>(plan.churn.slots + fleet.device_count());
  // Event-loop liveness: a healthy session keeps a few dozen timers alive;
  // 256 per participant is far above any working set and still catches a
  // stale-cancel or reschedule leak growing over hours.
  auditor.add_bound("loop", "pending_events",
                    [&loop] { return static_cast<double>(loop.pending_events()); },
                    population * 256.0);
  auditor.add_bound("medium", "endpoints",
                    [&wifi] { return static_cast<double>(wifi.endpoint_count()); },
                    population);
  auditor.add_bound("medium", "groups",
                    [&wifi] { return static_cast<double>(wifi.group_count()); },
                    population + 4.0);
  if (registry != nullptr) {
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      compress::SharedRecordStore& store =
          registry->store_for(1000 + static_cast<std::uint64_t>(i));
      const std::string component = "store.app" + std::to_string(i);
      auditor.add_probe(component, "consistency", [&store] {
        runtime::InvariantAuditor::Report r;
        const std::string err = store.audit_consistency();
        r.ok = err.empty();
        r.detail = err.empty() ? "consistent" : err;
        return r;
      });
      auditor.add_bound(
          component, "resident_bytes",
          [&store] { return static_cast<double>(store.resident_bytes()); },
          static_cast<double>(store.capacity_bytes()));
    }
  }
  if (plan.attach_tracer) {
    auditor.add_bound(
        "tracer", "open_spans",
        [&tracer] { return static_cast<double>(tracer.open_span_count()); },
        static_cast<double>(plan.churn.slots) *
            (2.0 * static_cast<double>(plan.max_pending) + 16.0));
  }

  // --- session slots ---------------------------------------------------------
  std::vector<Slot> slots(plan.churn.slots);
  std::vector<std::function<void()>> attempts(plan.churn.slots);
  std::vector<double> latencies_ms;
  double overload_factor_now = 1.0;

  std::function<void(std::size_t)> arrive;

  auto depart = [&](std::size_t s, std::uint64_t gen, bool respawn) {
    Slot& slot = slots[s];
    if (slot.generation != gen || !slot.active) return;
    const net::NodeId node = static_cast<net::NodeId>(1 + s);
    report.frames_lost += frames_lost_so_far(*slot.user->gbooster);
    // Order matters: probes capture raw pointers into the stack, so they
    // leave the auditor first; the fleet release closes the shared-store
    // lease and forgets the transport peer; the medium detach makes the node
    // id safe to reuse; only then does the stack itself die.
    auditor.remove_component(slot_label(s));
    auditor.remove_component(slot_label(s) + ".endpoint");
    (void)fleet.release_session(node);
    wifi.detach(node);
    slot.user.reset();
    slot.active = false;
    slot.generation++;  // strand every closure the session left behind
    report.sessions_completed++;
    if (respawn) {
      loop.schedule_after(seconds(plan.churn.respawn_delay_s),
                          [&, s] { arrive(s); });
    }
  };

  arrive = [&](std::size_t s) {
    // Too close to the end to tell a session from a teardown artifact.
    if (loop.now().seconds() + 5.0 >= plan.duration_s) return;
    Slot& slot = slots[s];
    const net::NodeId node = static_cast<net::NodeId>(1 + s);
    const std::size_t pick = static_cast<std::size_t>(
        rng.next_below(catalog.size()));
    const apps::WorkloadSpec workload = catalog[pick];
    const double base = workload.gpu_workload_pixels;
    const auto placed = fleet.place_session(node, base);
    if (!placed.has_value()) {
      // Fleet full; retry after a respawn delay (admission pressure counts
      // in the fleet's own placements_rejected stat).
      loop.schedule_after(seconds(plan.churn.respawn_delay_s),
                          [&, s] { arrive(s); });
      return;
    }
    slot.generation++;
    const std::uint64_t gen = slot.generation;
    slot.base_workload = base;

    auto user = std::make_unique<User>();
    user->radio = std::make_unique<net::RadioInterface>(
        loop, net::wifi_radio_config(), slot_label(s) + "-wifi");
    user->endpoint = std::make_unique<net::ReliableEndpoint>(loop, node);
    user->endpoint->bind(wifi, user->radio.get());

    core::GBoosterConfig gb_config;
    gb_config.max_pending_requests = plan.max_pending;
    gb_config.state_group = 0xff00 + static_cast<net::NodeId>(s);
    gb_config.qos = plan.qos;
    // Overload bursts are a designed-in axis: every slot runs the governor.
    // Dark windows (outages, cold migrations) shed at the head, as in any
    // session with local fallback off.
    gb_config.qos.enabled = true;
    gb_config.enable_local_fallback = false;
    if (plan.shared_dedup) {
      gb_config.shared_dedup = true;
      gb_config.app_id = 1000 + static_cast<std::uint64_t>(pick);
    }
    if (plan.attach_tracer) gb_config.tracer = &tracer;
    user->gbooster = std::make_unique<core::GBoosterRuntime>(
        loop, gb_config, *user->endpoint,
        std::vector<core::ServiceDeviceInfo>{fleet.device_info(*placed)});
    core::GBoosterRuntime* gbooster = user->gbooster.get();
    user->endpoint->set_handler(
        [gbooster](net::NodeId src, net::NodeId stream, Bytes message) {
          gbooster->on_message(src, stream, std::move(message));
        });
    user->gbooster->set_workload_override(
        [&overload_factor_now, base] { return base * overload_factor_now; });

    user->linker = std::make_unique<hooking::DynamicLinker>();
    user->genuine =
        std::make_unique<gles::DirectBackend>(64, 48, gles::PresentFn{});
    user->linker->register_library(hooking::LibraryImage::exporting_all(
        "libGLESv2.so", user->genuine.get()));
    user->gbooster->install(*user->linker);
    user->api = user->linker->link_gles("libGLESv2.so");

    user->app = std::make_unique<apps::GameApp>(
        workload, *user->api, plan.churn.app_width, plan.churn.app_height,
        rng.fork());
    user->app->setup();
    apps::TouchScriptConfig touch_config;
    touch_config.duration_s = plan.duration_s - loop.now().seconds();
    touch_config.burst_rate_hz = workload.burst_rate_hz;
    touch_config.burst_duration_s = workload.burst_duration_s;
    user->touch = std::make_unique<apps::TouchScript>(touch_config, rng.fork());
    const device::DeviceProfile phone =
        (s % 2 == 0) ? device::lg_g5() : device::nexus5();
    user->cpu_frame_s = workload.cpu_frame_seconds / phone.cpu_perf_index;

    const double fps = std::min(static_cast<double>(workload.target_fps),
                                plan.churn.fps_cap);
    const SimTime min_interval = seconds(1.0 / std::max(fps, 1.0));
    attempts[s] = [&, s, gen, min_interval] {
      Slot& sl = slots[s];
      if (sl.generation != gen || !sl.active ||
          loop.now().seconds() >= plan.duration_s) {
        return;
      }
      User& u = *sl.user;
      if (!u.gbooster->can_issue_frame()) {
        if (!u.waiting) {
          u.waiting = true;
          loop.schedule_after(min_interval, [&, s, gen] {
            Slot& sl2 = slots[s];
            if (sl2.generation != gen || !sl2.active) return;
            if (sl2.user->waiting) {
              sl2.user->waiting = false;
              attempts[s]();
            }
          });
        }
        return;
      }
      loop.schedule_after(seconds(u.cpu_frame_s), [&, s, gen, min_interval] {
        Slot& sl2 = slots[s];
        if (sl2.generation != gen || !sl2.active) return;
        User& u2 = *sl2.user;
        const double now_s = loop.now().seconds();
        u2.app->render_frame(now_s, u2.touch->burst_active(now_s));
        const SimTime next =
            std::max(loop.now(), u2.next_allowed + min_interval);
        u2.next_allowed = next;
        loop.schedule_at(next, [&, s, gen] {
          if (slots[s].generation == gen) attempts[s]();
        });
      });
    };
    user->gbooster->set_display_handler(
        [&, s, gen](std::uint64_t, SimTime latency, const Image&) {
          Slot& sl = slots[s];
          if (sl.generation != gen || sl.user == nullptr) return;
          report.frames_displayed++;
          latencies_ms.push_back(latency.ms());
          if (sl.user->waiting) {
            sl.user->waiting = false;
            attempts[s]();
          }
        });

    user->gbooster->register_invariant_probes(auditor, slot_label(s), fps);
    user->endpoint->register_invariant_probes(
        auditor, slot_label(s) + ".endpoint", fleet.device_count() + 1);

    slot.user = std::move(user);
    slot.active = true;
    report.sessions_started++;

    const double lifetime = plan.churn.mean_session_s * rng.uniform(0.5, 1.5);
    loop.schedule_after(seconds(lifetime),
                        [&, s, gen] { depart(s, gen, /*respawn=*/true); });
    attempts[s]();
  };

  // Staggered initial arrivals: ramp the population over the lesser of ten
  // seconds or a tenth of the run so placement sees a moving fleet.
  const double ramp_s = std::min(10.0, 0.1 * plan.duration_s);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const double at =
        0.01 + ramp_s * static_cast<double>(s) /
                   static_cast<double>(slots.size());
    loop.schedule_at(seconds(at), [&, s] { arrive(s); });
  }

  // --- overload bursts -------------------------------------------------------
  if (plan.overload.every_s > 0.0 && plan.overload.duration_s > 0.0) {
    for (double t = plan.overload.every_s; t < plan.duration_s;
         t += plan.overload.every_s) {
      loop.schedule_at(seconds(t), [&] {
        overload_factor_now = plan.overload.factor;
      });
      loop.schedule_at(seconds(t + plan.overload.duration_s),
                       [&] { overload_factor_now = 1.0; });
    }
  }

  // --- migrations ------------------------------------------------------------
  auto migrate_slot = [&](std::size_t s, std::size_t to, bool cold) -> bool {
    Slot& slot = slots[s];
    if (!slot.active || slot.user == nullptr) return false;
    const net::NodeId node = static_cast<net::NodeId>(1 + s);
    const auto from = fleet.session_device(node);
    if (!from.has_value() || to >= fleet.device_count() || to == *from) {
      return false;
    }
    if (fleet.session_count(to) >=
        static_cast<std::size_t>(fleet.device_config(to).max_sessions)) {
      return false;
    }
    core::MigrationOptions options;
    options.cold_restart = cold;
    options.reconnect_delay = seconds(0.25);
    options.drain_timeout = seconds(0.5);
    slot.user->gbooster->migrate_service_device(0, fleet.device_info(to),
                                                options);
    fleet.register_session(node, to);
    const double release_delay_s = cold ? 0.0 : 0.6;
    const std::size_t source = *from;
    const std::uint64_t gen = slot.generation;
    loop.schedule_after(seconds(release_delay_s), [&, node, source, s, gen] {
      // The drain-tail release on the source. Skip only if the slot churned
      // *and* its replacement session landed back on the source — releasing
      // then would tear down the new session's server state.
      if (slots[s].generation != gen &&
          fleet.session_device(node) == source) {
        return;
      }
      (void)fleet.runtime(source).release_user(node);
    });
    return true;
  };

  core::FleetBalancer balancer(plan.balancer);
  std::function<void()> balance_tick;
  balance_tick = [&] {
    if (loop.now().seconds() >= plan.duration_s) return;
    double mean_workload = 0.0;
    std::size_t active = 0;
    for (const Slot& sl : slots) {
      if (sl.active) {
        mean_workload += sl.base_workload;
        active++;
      }
    }
    mean_workload = active > 0
                        ? mean_workload / static_cast<double>(active)
                        : 80e6;
    const auto decision =
        balancer.tick(fleet, mean_workload, loop.now().seconds());
    // suggestions-only mode (the A/B baseline) decides but never executes.
    if (decision.has_value() && plan.auto_rebalance &&
        decision->user >= 1 &&
        migrate_slot(static_cast<std::size_t>(decision->user - 1),
                     decision->to, /*cold=*/false)) {
      report.auto_migrations++;
    }
    loop.schedule_after(seconds(plan.balance_interval_s), balance_tick);
  };
  if (plan.balance_interval_s > 0.0) {
    loop.schedule_after(seconds(plan.balance_interval_s), balance_tick);
  }

  std::function<void()> cold_tick;
  if (plan.cold_migrate_every_s > 0.0) {
    cold_tick = [&] {
      if (loop.now().seconds() >= plan.duration_s) return;
      // Random active victim; coolest other device with headroom.
      const std::size_t start =
          static_cast<std::size_t>(rng.next_below(slots.size()));
      for (std::size_t k = 0; k < slots.size(); ++k) {
        const std::size_t s = (start + k) % slots.size();
        if (!slots[s].active) continue;
        const net::NodeId node = static_cast<net::NodeId>(1 + s);
        const auto from = fleet.session_device(node);
        if (!from.has_value()) continue;
        std::size_t to = fleet.device_count();
        double best = 0.0;
        for (std::size_t j = 0; j < fleet.device_count(); ++j) {
          if (j == *from) continue;
          if (fleet.session_count(j) >= static_cast<std::size_t>(
                                            fleet.device_config(j).max_sessions)) {
            continue;
          }
          const double score =
              fleet.placement_score(j, slots[s].base_workload);
          if (to == fleet.device_count() || score < best) {
            to = j;
            best = score;
          }
        }
        if (to < fleet.device_count() &&
            migrate_slot(s, to, /*cold=*/true)) {
          report.cold_migrations++;
        }
        break;
      }
      loop.schedule_after(seconds(plan.cold_migrate_every_s), cold_tick);
    };
    loop.schedule_after(seconds(plan.cold_migrate_every_s), cold_tick);
  }

  // --- audit + drift-sampling loop -------------------------------------------
  std::map<std::string, DriftTrack> drift;
  auto sample_gauge = [&](const std::string& name, double value) {
    DriftTrack& track = drift[name];
    track.high_water = std::max(track.high_water, value);
    track.final_value = value;
    if (track.at10 < 0.0 &&
        loop.now().seconds() >= 0.1 * plan.duration_s) {
      track.at10 = value;
    }
  };
  std::vector<std::uint64_t> throttled_samples(fleet.device_count(), 0);
  std::uint64_t audit_samples = 0;
  double queue_depth_sum = 0.0;

  auto audit_and_sample = [&] {
    report.violations += auditor.audit(loop.now().seconds());
    audit_samples++;

    double rtt_total = 0.0;
    double streams_total = 0.0;
    double outstanding_total = 0.0;
    for (std::size_t d = 0; d < fleet.device_count(); ++d) {
      const net::ReliableEndpoint& ep = fleet.runtime(d).endpoint();
      rtt_total += static_cast<double>(ep.rtt_entry_count());
      streams_total += static_cast<double>(ep.stream_state_count());
      outstanding_total += static_cast<double>(ep.outstanding_count());
    }
    for (const Slot& sl : slots) {
      if (!sl.active) continue;
      rtt_total += static_cast<double>(sl.user->endpoint->rtt_entry_count());
      streams_total +=
          static_cast<double>(sl.user->endpoint->stream_state_count());
      outstanding_total +=
          static_cast<double>(sl.user->endpoint->outstanding_count());
    }
    double active_sessions = 0.0;
    for (const Slot& sl : slots) {
      if (sl.active) active_sessions += 1.0;
    }
    sample_gauge("active_sessions", active_sessions);
    sample_gauge("pending_events",
                 static_cast<double>(loop.pending_events()));
    sample_gauge("rtt_entries_total", rtt_total);
    sample_gauge("stream_states_total", streams_total);
    sample_gauge("outstanding_total", outstanding_total);
    sample_gauge("medium_endpoints",
                 static_cast<double>(wifi.endpoint_count()));
    sample_gauge("medium_groups", static_cast<double>(wifi.group_count()));
    if (registry != nullptr) {
      double store_bytes = 0.0;
      double store_entries = 0.0;
      for (std::size_t i = 0; i < catalog.size(); ++i) {
        compress::SharedRecordStore& store =
            registry->store_for(1000 + static_cast<std::uint64_t>(i));
        store_bytes += static_cast<double>(store.resident_bytes());
        store_entries += static_cast<double>(store.entry_count());
      }
      sample_gauge("store_resident_bytes", store_bytes);
      sample_gauge("store_entries", store_entries);
    }
    if (plan.attach_tracer) {
      sample_gauge("tracer_open_spans",
                   static_cast<double>(tracer.open_span_count()));
    }

    double max_depth = 0.0;
    for (std::size_t d = 0; d < fleet.device_count(); ++d) {
      device::GpuModel& gpu = fleet.runtime(d).gpu();
      gpu.sync();
      max_depth = std::max(max_depth, static_cast<double>(gpu.queue_depth()));
      report.max_temperature_c =
          std::max(report.max_temperature_c, gpu.temperature_c());
      if (gpu.throttled()) throttled_samples[d]++;
    }
    queue_depth_sum += max_depth;
    report.hot_spot_peak_queue_depth =
        std::max(report.hot_spot_peak_queue_depth, max_depth);
  };

  double t = 0.0;
  while (true) {
    t = std::min(t + plan.audit_interval_s, plan.duration_s);
    loop.run_until(seconds(t));
    audit_and_sample();
    if (report.violations > 0 && plan.halt_on_violation) {
      report.halted_early = t < plan.duration_s;
      break;
    }
    if (t >= plan.duration_s) break;
  }

  // --- report ----------------------------------------------------------------
  for (const Slot& sl : slots) {
    if (sl.active && sl.user != nullptr) {
      report.frames_lost += frames_lost_so_far(*sl.user->gbooster);
    }
  }
  if (!latencies_ms.empty()) {
    double sum = 0.0;
    for (const double v : latencies_ms) sum += v;
    report.mean_latency_ms = sum / static_cast<double>(latencies_ms.size());
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    report.p95_latency_ms = runtime::percentile_sorted(sorted, 0.95);
    report.p99_latency_ms = runtime::percentile_sorted(sorted, 0.99);
  }
  report.placements_rejected = fleet.stats().placements_rejected;
  report.balancer = balancer.stats();
  report.audits_run = auditor.audits_run();
  report.probes_evaluated = auditor.probes_evaluated();
  if (report.violations > 0) report.violation_dump = auditor.dump();
  report.hot_spot_mean_queue_depth =
      audit_samples > 0 ? queue_depth_sum / static_cast<double>(audit_samples)
                        : 0.0;
  for (std::size_t d = 0; d < fleet.device_count(); ++d) {
    report.device_throttled_fraction.push_back(
        audit_samples > 0
            ? static_cast<double>(throttled_samples[d]) /
                  static_cast<double>(audit_samples)
            : 0.0);
  }
  for (auto& [name, track] : drift) {
    if (track.at10 < 0.0) track.at10 = track.final_value;
    report.drift.push_back(
        SoakDriftSeries{name, track.at10, track.high_water,
                        track.final_value});
  }
  report.faults = faults.stats();
  report.fleet = fleet.stats();

  Fnv1a fp;
  fp.fold(report.sessions_started);
  fp.fold(report.sessions_completed);
  fp.fold(report.placements_rejected);
  fp.fold(report.frames_displayed);
  fp.fold(report.frames_lost);
  fp.fold(report.auto_migrations);
  fp.fold(report.cold_migrations);
  fp.fold(report.balancer.checks);
  fp.fold(report.balancer.pressured_checks);
  fp.fold(report.balancer.migrations_decided);
  fp.fold(report.balancer.suppressed_sustain);
  fp.fold(report.balancer.suppressed_cooldown);
  fp.fold(report.fleet.sessions_placed);
  fp.fold(report.fleet.sessions_released);
  fp.fold(report.fleet.rebalances_suggested);
  fp.fold(report.faults.dropped_by_burst);
  fp.fold(report.faults.dropped_by_link_outage);
  fp.fold(report.faults.dropped_by_outage);
  fp.fold(report.audits_run);
  fp.fold(report.violations);
  fp.fold_ms(report.mean_latency_ms);
  fp.fold_ms(report.p95_latency_ms);
  fp.fold_ms(report.p99_latency_ms);
  fp.fold_ms(report.hot_spot_peak_queue_depth);
  for (const SoakDriftSeries& series : report.drift) {
    fp.fold_ms(series.high_water);
    fp.fold_ms(series.final_value);
  }
  report.fingerprint = fp.value();
  return report;
}

}  // namespace gb::sim
