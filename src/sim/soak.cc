#include "sim/soak.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "common/error.h"
#include "runtime/invariant_audit.h"
#include "runtime/trace.h"
#include "sim/metrics.h"
#include "sim/testbed.h"

namespace gb::sim {
namespace {

// High enough that hundreds of user slots (node == 1 + slot) can never
// collide with a fleet device's node id.
constexpr net::NodeId kFirstDeviceNode = 100000;
// Gap between a slot's teardown and its next arrival.
constexpr double kRespawnDelayS = 1.5;
// Each radio flap kills one user's wifi link this long; each device outage
// takes a fleet device off the air this long.
constexpr double kLinkFlapS = 1.0;
constexpr double kDeviceOutageS = 1.5;
constexpr double kBalanceIntervalS = 2.0;

// A session slot. The node id (1 + slot index) is *reused* across the slot's
// successive sessions: each arrival builds a fresh stack and restarts the
// pacer, each departure stops the pacer and destroys the stack.
struct Slot {
  Slot(EventLoop& loop, double end_s) : pacer(loop, end_s) {}

  std::unique_ptr<UserStack> stack;  // null between sessions
  AppPacer pacer;
  double base_workload = 0.0;
};

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

// Radio flaps on random users and outages of random devices, spread over the
// run with seeded jitter, on top of the plan's burst-loss process.
net::FaultPlanConfig soak_faults(const SoakPlan& plan, Rng& rng,
                                 std::size_t device_count) {
  net::FaultPlanConfig config;
  config.seed = plan.seed ^ 0x50a4c4a05ull;
  if (!plan.faults.enabled) return config;
  config.burst = plan.faults.burst;
  Rng fault_rng = rng.fork();
  if (plan.faults.link_flap_every_s > 0.0) {
    double t = plan.faults.link_flap_every_s * fault_rng.uniform(0.5, 1.5);
    while (t < plan.duration_s) {
      net::LinkOutageWindow w;
      w.link = 0;
      w.node = static_cast<net::NodeId>(
          1 + fault_rng.next_below(plan.churn.slots));
      w.start = seconds(t);
      w.end = seconds(t + kLinkFlapS);
      config.link_outages.push_back(w);
      t += plan.faults.link_flap_every_s * fault_rng.uniform(0.5, 1.5);
    }
  }
  if (plan.faults.device_outage_every_s > 0.0) {
    double t = plan.faults.device_outage_every_s * fault_rng.uniform(0.75, 1.25);
    while (t < plan.duration_s) {
      net::OutageWindow w;
      w.node = kFirstDeviceNode +
               static_cast<net::NodeId>(fault_rng.next_below(device_count));
      w.start = seconds(t);
      w.end = seconds(t + kDeviceOutageS);
      config.outages.push_back(w);
      t += plan.faults.device_outage_every_s * fault_rng.uniform(0.75, 1.25);
    }
  }
  return config;
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

  // --- network, faults, fleet ------------------------------------------------
  const Rng wifi_rng = rng.fork();
  net::FaultPlan faults(soak_faults(plan, rng, profiles.size()));
  runtime::Tracer tracer;
  core::ServiceRuntimeConfig service_config;
  service_config.render_width = plan.render_width;
  service_config.render_height = plan.render_height;
  service_config.content_sample_every = plan.render_width == 0 ? 1 : 8;
  if (plan.attach_tracer) service_config.tracer = &tracer;
  const std::shared_ptr<compress::SharedStoreRegistry> registry =
      dedup_registry(plan.shared_dedup, nullptr);
  service_config.shared_store = registry;
  SharedWifiFleet devices(loop, wifi_rng, service_config, profiles,
                          kFirstDeviceNode, plan.max_sessions_per_device);
  net::Medium& wifi = devices.wifi;
  core::ServiceFleet& fleet = devices.fleet;
  if (plan.faults.enabled) {
    wifi.set_fault_plan(&faults, 0);
    for (std::size_t d = 0; d < fleet.device_count(); ++d) {
      fleet.runtime(d).set_fault_plan(&faults);
    }
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
            (2.0 * kMultiUserMaxPending + 16.0));
  }

  // --- session slots ---------------------------------------------------------
  std::deque<Slot> slots;
  for (std::size_t s = 0; s < plan.churn.slots; ++s) {
    slots.emplace_back(loop, plan.duration_s);
  }
  // Every session's displays, pooled.
  MetricsCollector displays;
  double overload_factor_now = 1.0;

  std::function<void(std::size_t)> arrive;

  auto depart = [&](std::size_t s, std::uint64_t generation) {
    Slot& slot = slots[s];
    if (slot.pacer.generation() != generation) return;
    const net::NodeId node = static_cast<net::NodeId>(1 + s);
    report.frames_lost += slot.stack->frames_lost();
    // Order matters: probes capture raw pointers into the stack, so they
    // leave the auditor first; the fleet release closes the shared-store
    // lease and forgets the transport peer; the medium detach makes the node
    // id safe to reuse; the pacer strands every closure the session left
    // behind; only then does the stack itself die.
    auditor.remove_component(slot_label(s));
    auditor.remove_component(slot_label(s) + ".endpoint");
    (void)fleet.release_session(node);
    wifi.detach(node);
    slot.pacer.stop();
    slot.stack.reset();
    report.sessions_completed++;
    loop.schedule_after(seconds(kRespawnDelayS), [&, s] { arrive(s); });
  };

  arrive = [&](std::size_t s) {
    // Too close to the end to tell a session from a teardown artifact.
    if (loop.now().seconds() + 5.0 >= plan.duration_s) return;
    Slot& slot = slots[s];
    const net::NodeId node = static_cast<net::NodeId>(1 + s);
    const std::size_t pick = static_cast<std::size_t>(
        rng.next_below(catalog.size()));
    const apps::WorkloadSpec& workload = catalog[pick];
    const double base = workload.gpu_workload_pixels;
    const auto placed = fleet.place_session(node, base);
    if (!placed.has_value()) {
      // Fleet full; retry after a respawn delay (admission pressure counts
      // in the fleet's own placements_rejected stat).
      loop.schedule_after(seconds(kRespawnDelayS), [&, s] { arrive(s); });
      return;
    }
    slot.base_workload = base;

    UserStackSpec spec;
    spec.node = node;
    spec.name = slot_label(s);
    spec.wifi = &wifi;
    spec.gbooster.max_pending_requests = kMultiUserMaxPending;
    spec.gbooster.state_group = 0xff00 + static_cast<net::NodeId>(s);
    spec.gbooster.qos = plan.qos;
    // Overload bursts are a designed-in axis: every slot runs the governor.
    // Dark windows (outages, cold migrations) shed at the head, as in any
    // session with local fallback off.
    spec.gbooster.qos.enabled = true;
    spec.gbooster.enable_local_fallback = false;
    if (plan.shared_dedup) {
      spec.gbooster.shared_dedup = true;
      spec.gbooster.app_id = 1000 + static_cast<std::uint64_t>(pick);
    }
    if (plan.attach_tracer) spec.gbooster.tracer = &tracer;
    spec.devices = {fleet.device_info(*placed)};
    spec.workload_pixels = [&overload_factor_now, base] {
      return base * overload_factor_now;
    };
    spec.app = workload;
    spec.app_width = plan.churn.app_width;
    spec.app_height = plan.churn.app_height;
    spec.touch =
        touch_script_config(workload, plan.duration_s - loop.now().seconds());
    slot.stack = std::make_unique<UserStack>(loop, spec, rng);
    UserStack& stack = *slot.stack;
    stack.gbooster.set_display_handler(
        [&, s](std::uint64_t, SimTime latency, const Image&) {
          Slot& sl = slots[s];
          if (sl.stack == nullptr) return;
          displays.on_frame_displayed(loop.now(), latency);
          sl.pacer.on_display();
        });
    const double fps = std::min(static_cast<double>(workload.target_fps),
                                plan.churn.fps_cap);
    stack.gbooster.register_invariant_probes(auditor, slot_label(s), fps);
    stack.endpoint.register_invariant_probes(
        auditor, slot_label(s) + ".endpoint", fleet.device_count() + 1);
    report.sessions_started++;

    const device::DeviceProfile phone =
        (s % 2 == 0) ? device::lg_g5() : device::nexus5();
    slot.pacer.start(stack, workload.cpu_frame_seconds / phone.cpu_perf_index,
                     seconds(1.0 / std::max(fps, 1.0)));
    const double lifetime = plan.churn.mean_session_s * rng.uniform(0.5, 1.5);
    loop.schedule_after(seconds(lifetime),
                        [&, s, generation = slot.pacer.generation()] {
                          depart(s, generation);
                        });
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
  auto migrate_slot = [&](std::size_t s, std::size_t to, bool cold) {
    Slot& slot = slots[s];
    return slot.stack != nullptr &&
           migrate_session(loop, fleet, *slot.stack, slot.pacer,
                           static_cast<net::NodeId>(1 + s), to, cold)
               .has_value();
  };

  core::FleetBalancer balancer(plan.balancer);
  std::function<void()> balance_tick;
  balance_tick = [&] {
    if (loop.now().seconds() >= plan.duration_s) return;
    double mean_workload = 0.0;
    std::size_t active = 0;
    for (const Slot& sl : slots) {
      if (sl.stack != nullptr) {
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
    loop.schedule_after(seconds(kBalanceIntervalS), balance_tick);
  };
  loop.schedule_after(seconds(kBalanceIntervalS), balance_tick);

  std::function<void()> cold_tick;
  if (plan.cold_migrate_every_s > 0.0) {
    cold_tick = [&] {
      if (loop.now().seconds() >= plan.duration_s) return;
      // Random active victim; coolest other device with headroom.
      const std::size_t start =
          static_cast<std::size_t>(rng.next_below(slots.size()));
      for (std::size_t k = 0; k < slots.size(); ++k) {
        const std::size_t s = (start + k) % slots.size();
        if (slots[s].stack == nullptr) continue;
        const auto from =
            fleet.session_device(static_cast<net::NodeId>(1 + s));
        if (!from.has_value()) continue;
        const auto to =
            fleet.coolest_with_headroom(slots[s].base_workload, from);
        if (to.has_value() && migrate_slot(s, *to, /*cold=*/true)) {
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
    double active_sessions = 0.0;
    for (const Slot& sl : slots) {
      if (sl.stack == nullptr) continue;
      rtt_total += static_cast<double>(sl.stack->endpoint.rtt_entry_count());
      streams_total +=
          static_cast<double>(sl.stack->endpoint.stream_state_count());
      outstanding_total +=
          static_cast<double>(sl.stack->endpoint.outstanding_count());
      active_sessions += 1.0;
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
    if (report.violations > 0) {
      report.halted_early = t < plan.duration_s;
      break;
    }
    if (t >= plan.duration_s) break;
  }

  // --- report ----------------------------------------------------------------
  for (const Slot& sl : slots) {
    if (sl.stack != nullptr) report.frames_lost += sl.stack->frames_lost();
  }
  report.frames_displayed = displays.frames_displayed();
  const LatencySummary latency = displays.latency_summary();
  report.mean_latency_ms = latency.mean_ms;
  report.p95_latency_ms = latency.p95_ms;
  report.p99_latency_ms = latency.p99_ms;
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
