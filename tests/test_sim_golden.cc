// Golden pins on the simulation harnesses (DESIGN.md §16, "Simulation
// testbed").
//
// Six short runs — a local session, an offload session with a hot-join, a
// link flap and the traffic trace, a priority-scheduled multi-user run under
// admission control and QoS, a staggered shared-dedup multi-user run, a
// fleet scenario with churn and one live plus one cold migration, and a
// full-chaos soak — are reduced to an FNV-1a hash of everything they report.
// A refactor of how the harnesses assemble the user stack, pace the apps or
// build the service devices must leave every hash unchanged. Each test prints
// the hashed values, so on a mismatch the moved field can be read off the
// output.
//
// Like WireGolden and DispatchGolden, the hashes hold for the optimised
// builds (-O2); an -O0 build records the apps' matrices a few ULPs apart.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "device/device_profiles.h"
#include "sim/fleet.h"
#include "sim/multiuser.h"
#include "sim/session.h"
#include "sim/soak.h"
#include "test_support.h"

namespace gb::sim {
namespace {

class Golden {
 public:
  void add(const std::string& name, std::uint64_t value) {
    hash_.add_u64(value);
    trace_ += name + "=" + std::to_string(value) + " ";
  }
  void add(const std::string& name, double value) {
    hash_.add_u64(std::bit_cast<std::uint64_t>(value));
    trace_ += name + "=" + std::to_string(value) + " ";
  }
  void add(const std::string& name, const std::vector<double>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      add(name + "[" + std::to_string(i) + "]", values[i]);
    }
  }
  void add(const std::string& name, const std::vector<std::uint64_t>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      add(name + "[" + std::to_string(i) + "]", values[i]);
    }
  }

  void metrics(const std::string& p, const SessionMetrics& m) {
    add(p + "median_fps", m.median_fps);
    add(p + "stability", m.fps_stability);
    add(p + "avg_response_ms", m.avg_response_ms);
    add(p + "frames", m.frames_displayed);
    add(p + "max_gap_s", m.max_display_gap_s);
    add(p + "stall_s", m.stall_seconds);
    add(p + "p95_ms", m.p95_response_ms);
    add(p + "p99_ms", m.p99_response_ms);
    add(p + "issue_to_display_ms", m.avg_issue_to_display_ms);
    for (const int fps : m.fps_timeline) {
      hash_.add_u64(static_cast<std::uint64_t>(fps));
    }
  }

  void transport(const std::string& p, const net::ReliableStats& t) {
    add(p + "sent", t.messages_sent);
    add(p + "delivered", t.messages_delivered);
    add(p + "chunks", t.chunks_sent);
    add(p + "retx", t.chunks_retransmitted);
    add(p + "abandoned", t.messages_abandoned);
    add(p + "payload", t.payload_bytes_sent);
    add(p + "rtt_samples", t.rtt_samples);
    add(p + "reroutes", t.path_reroutes);
  }

  void gbooster(const core::GBoosterStats& g) {
    add("g.displayed", g.frames_displayed);
    add("g.dropped", g.frames_dropped);
    add("g.shed", g.frames_shed_window + g.frames_shed_deadline +
                      g.frames_shed_void + g.frames_shed_service);
    add("g.bytes_sent", g.bytes_sent);
    add("g.bytes_received", g.bytes_received);
    add("g.t_p_ms_sum", g.t_p_ms_sum);
    add("g.local_render_s", g.local_render_seconds);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_.value(); }
  [[nodiscard]] const std::string& trace() const { return trace_; }

 private:
  test_support::Fnv1a hash_;
  std::string trace_;
};

std::uint64_t pinned(const char* name, const Golden& g) {
  std::cout << "[ golden ] " << name << " " << g.trace() << "\n"
            << "[ golden ] " << name << " hash 0x" << std::hex << g.value()
            << std::dec << "\n";
  return g.value();
}

SessionConfig session_base() {
  SessionConfig config;
  config.workload = apps::g1_gta_san_andreas();
  config.user_device = device::nexus5();
  config.duration_s = 6.0;
  config.seed = 21;
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 6;
  return config;
}

TEST(SimGolden, LocalSessionWithGpuTrace) {
  SessionConfig config = session_base();
  config.collect_gpu_trace = true;
  const SessionResult r = run_session(config);
  Golden g;
  g.metrics("", r.metrics);
  g.add("cpu_j", r.energy.cpu_j);
  g.add("gpu_j", r.energy.gpu_j);
  g.add("display_j", r.energy.display_j);
  g.add("cpu_pct", r.cpu_usage_percent);
  for (const auto& [t, mhz] : r.gpu_frequency_trace) {
    g.add("freq_t", t);
    g.add("freq", mhz);
  }
  for (const auto& [t, c] : r.gpu_temperature_trace) g.add("temp", c);
  EXPECT_EQ(pinned("local", g), 0x2f6f0afe8dae6b1full);
}

TEST(SimGolden, OffloadSessionWithHotJoinAndLinkFlap) {
  SessionConfig config = session_base();
  config.service_devices = {device::nvidia_shield()};
  config.hot_joins.push_back({device::minix_neo_u1(), 2.0});
  config.link_flaps.push_back({0, 3.0, 3.6});
  config.switcher.policy = core::SwitchPolicy::kMultipath;
  config.collect_traffic_trace = true;
  const SessionResult r = run_session(config);
  Golden g;
  g.metrics("", r.metrics);
  g.gbooster(r.gbooster);
  g.add("energy", r.energy.total());
  g.add("wifi_j", r.energy.wifi_j);
  g.add("bt_j", r.energy.bt_j);
  g.add("traffic_mbps", r.avg_traffic_mbps);
  g.add("cpu_pct", r.cpu_usage_percent);
  g.add("memory", static_cast<std::uint64_t>(r.memory_overhead_bytes));
  g.transport("user.", r.transport);
  g.transport("service.", r.service_transport);
  g.add("wifi_weight", r.user_path_wifi.weight);
  g.add("bt_bytes", r.user_path_bt.bytes_sent);
  g.add("link_outage_drops", r.faults.dropped_by_link_outage);
  g.add("lost_to_faults", r.requests_lost_to_faults);
  for (const predict::TrafficSample& s : r.traffic_trace) {
    g.add("bytes", s.traffic_bytes);
    g.add("touch", s.touch_rate);
    g.add("cmds", s.command_count);
    g.add("diff", s.command_diff);
  }
  EXPECT_EQ(pinned("offload", g), 0xc63f2b38aeaca7b9ull);
}

void add_multiuser(Golden& g, const MultiUserResult& r) {
  for (std::size_t u = 0; u < r.per_user.size(); ++u) {
    g.metrics("u" + std::to_string(u) + ".", r.per_user[u]);
  }
  g.add("mean", r.mean_latency_ms);
  g.add("p95", r.p95_latency_ms);
  g.add("service_sheds", r.service_sheds_per_user);
  g.add("governor_sheds", r.governor_sheds_per_user);
  g.add("bytes_sent", r.bytes_sent_per_user);
  g.add("shared_hits", r.shared_hits_per_user);
  g.add("busy", r.service_gpu_busy_fraction);
  g.add("resident", r.shared_store_resident_bytes);
}

TEST(SimGolden, MultiUserPriorityWithAdmissionAndQos) {
  MultiUserConfig config;
  config.service_device = device::nvidia_shield();
  config.service_device.gpu.scheduling = device::GpuScheduling::kPriority;
  config.duration_s = 5.0;
  config.seed = 3;
  config.admission_queue_cap = 1;
  config.qos.enabled = true;
  MultiUserParticipant shooter;
  shooter.workload = apps::g2_modern_combat();
  shooter.phone = device::lg_g5();
  shooter.priority = 0;
  MultiUserParticipant puzzle;
  puzzle.workload = apps::g5_candy_crush();
  puzzle.phone = device::nexus5();
  puzzle.priority = 5;
  config.users = {shooter, puzzle, shooter};
  Golden g;
  add_multiuser(g, run_multiuser_session(config));
  EXPECT_EQ(pinned("multiuser_priority", g), 0x53eafbee1348baabull);
}

TEST(SimGolden, MultiUserStaggeredSharedDedup) {
  MultiUserConfig config;
  config.service_device = device::nvidia_shield();
  config.duration_s = 5.0;
  config.seed = 9;
  config.shared_dedup = true;
  for (int u = 0; u < 3; ++u) {
    MultiUserParticipant p;
    p.workload = apps::g4_final_fantasy();
    p.phone = device::lg_g5();
    p.app_id = 77;
    p.join_delay_s = 0.8 * u;
    config.users.push_back(p);
  }
  Golden g;
  add_multiuser(g, run_multiuser_session(config));
  EXPECT_EQ(pinned("multiuser_dedup", g), 0x521a091230b5c85dull);
}

TEST(SimGolden, FleetChurnWithLiveAndColdMigration) {
  FleetScenarioConfig config;
  config.devices = {device::nvidia_shield(), device::minix_neo_u1()};
  config.duration_s = 8.0;
  config.seed = 13;
  config.shared_dedup = true;
  config.qos.enabled = true;
  const apps::WorkloadSpec workloads[] = {
      apps::g1_gta_san_andreas(), apps::g5_candy_crush(),
      apps::g5_candy_crush(), apps::g3_star_wars_kotor()};
  const double arrive[] = {0.0, 0.5, 1.0, 2.0};
  const double depart[] = {0.0, 6.0, 0.0, 7.0};
  for (int u = 0; u < 4; ++u) {
    FleetUserSpec spec;
    spec.workload = workloads[u];
    spec.phone = u % 2 == 0 ? device::lg_g5() : device::nexus5();
    spec.app_id = u == 1 || u == 2 ? 5 : 100 + u;
    spec.arrive_s = arrive[u];
    spec.depart_s = depart[u];
    config.users.push_back(spec);
  }
  FleetMigrationSpec live;
  live.user_index = 0;
  live.at_s = 3.0;
  FleetMigrationSpec cold;
  cold.user_index = 2;
  cold.at_s = 4.5;
  cold.cold = true;
  config.migrations = {live, cold};
  const FleetScenarioResult r = run_fleet_scenario(config);
  Golden g;
  for (std::size_t u = 0; u < r.per_user.size(); ++u) {
    g.metrics("u" + std::to_string(u) + ".", r.per_user[u]);
  }
  g.add("mean", r.mean_latency_ms);
  g.add("p95", r.p95_latency_ms);
  g.add("p99", r.p99_latency_ms);
  g.add("displayed", r.frames_displayed_per_user);
  g.add("lost", r.frames_lost_per_user);
  g.add("migrations", r.migrations_per_user);
  g.add("busy", r.device_busy_fraction);
  g.add("released", r.users_released_per_device);
  g.add("unresolvable", r.renders_dropped_unresolvable_per_device);
  g.add("joins", r.joins_answered_per_device);
  for (const std::size_t n : r.final_sessions_per_device) {
    g.add("final_sessions", static_cast<std::uint64_t>(n));
  }
  for (const FleetMigrationOutcome& m : r.migrations) {
    g.add("m.user", static_cast<std::uint64_t>(m.user_index));
    g.add("m.from", static_cast<std::uint64_t>(m.from_device));
    g.add("m.to", static_cast<std::uint64_t>(m.to_device));
    g.add("m.blackout_ms", m.blackout_ms);
    g.add("m.lost", m.frames_lost);
  }
  g.add("placed", r.fleet.sessions_placed);
  g.add("rejected", r.fleet.placements_rejected);
  g.add("fleet_released", r.fleet.sessions_released);
  EXPECT_EQ(pinned("fleet", g), 0x14f59cd9273c4782ull);
}

TEST(SimGolden, ShortFullChaosSoak) {
  SoakPlan plan;
  plan.duration_s = 30.0;
  plan.seed = 17;
  plan.churn.slots = 8;
  plan.churn.mean_session_s = 8.0;
  plan.churn.fps_cap = 10.0;
  plan.max_sessions_per_device = 5;
  plan.faults.link_flap_every_s = 6.0;
  plan.faults.device_outage_every_s = 10.0;
  plan.overload.every_s = 9.0;
  plan.overload.duration_s = 3.0;
  plan.cold_migrate_every_s = 7.0;
  plan.audit_interval_s = 2.0;
  plan.attach_tracer = true;
  const SoakReport r = run_soak(plan);
  Golden g;
  g.add("fingerprint", r.fingerprint);
  g.add("started", r.sessions_started);
  g.add("completed", r.sessions_completed);
  g.add("rejected", r.placements_rejected);
  g.add("displayed", r.frames_displayed);
  g.add("lost", r.frames_lost);
  g.add("mean", r.mean_latency_ms);
  g.add("p95", r.p95_latency_ms);
  g.add("p99", r.p99_latency_ms);
  g.add("auto", r.auto_migrations);
  g.add("cold", r.cold_migrations);
  g.add("audits", r.audits_run);
  g.add("probes", r.probes_evaluated);
  g.add("violations", r.violations);
  g.add("hot_mean", r.hot_spot_mean_queue_depth);
  g.add("hot_peak", r.hot_spot_peak_queue_depth);
  g.add("throttled", r.device_throttled_fraction);
  g.add("max_temp", r.max_temperature_c);
  for (const SoakDriftSeries& s : r.drift) {
    g.add(s.name + ".at10", s.at_10pct);
    g.add(s.name + ".high", s.high_water);
    g.add(s.name + ".final", s.final_value);
  }
  EXPECT_EQ(r.violations, 0u) << r.violation_dump;
  EXPECT_EQ(pinned("soak", g), 0x131b4824edf4c6bcull);
}

}  // namespace
}  // namespace gb::sim
