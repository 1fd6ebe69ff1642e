// Fleet scenarios (DESIGN.md §15): many user devices offloading to a
// ServiceFleet of several service devices, with session churn (staggered
// arrivals and departures) and scripted live/cold session migrations.
//
// Each user runs the full GBooster stack against the one fleet device its
// session was placed on; the fleet makes the placement call (the session-
// granular extension of Eq. 4) and tracks tenancy. A migration event drains
// the user's slot off its current device and re-bases it on a target — live
// (GL-state snapshot + cache-mirror transfer, PR 4 machinery) or cold (the
// disconnect/reconnect-from-scratch baseline) — and the harness measures the
// migration blackout: the longest issue-to-display gap a viewer would see
// around the event.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "apps/workload.h"
#include "compress/shared_store.h"
#include "core/qos_governor.h"
#include "core/service_fleet.h"
#include "device/device_profiles.h"
#include "sim/metrics.h"

namespace gb::sim {

struct FleetUserSpec {
  apps::WorkloadSpec workload;
  device::DeviceProfile phone;
  // Shared-store identity (DESIGN.md §14) when the scenario enables dedup.
  std::uint64_t app_id = 0;
  // Session lifetime within the run; depart_s <= 0 means "stays to the end".
  double arrive_s = 0.0;
  double depart_s = 0.0;
};

// Moves a user's session to the coolest other device (lowest placement
// score with session headroom) at `at_s`: live, with a 0.5 s drain on the
// source, or cold, dark for 0.25 s before it reconnects.
struct FleetMigrationSpec {
  std::size_t user_index = 0;
  double at_s = 0.0;
  bool cold = false;  // disconnect/reconnect baseline
};

struct FleetScenarioConfig {
  std::vector<FleetUserSpec> users;
  std::vector<device::DeviceProfile> devices;
  int max_sessions_per_device = 8;
  double duration_s = 30.0;
  std::uint64_t seed = 1;
  int render_width = 96;
  int render_height = 72;
  int content_sample_every = 8;
  // Per-user QoS governor (the null policy unless enabled). Fleet users run
  // without local fallback, so migration cost shows up as blackout and
  // frames shed while a slot is dark, instead of being papered over.
  core::QosGovernorConfig qos;
  bool shared_dedup = false;
  // Carries residency across harness calls when set (else created fresh
  // whenever shared_dedup is on). The same registry backs every fleet
  // device — the §14 fleet-wide store.
  std::shared_ptr<compress::SharedStoreRegistry> shared_store;
  std::vector<FleetMigrationSpec> migrations;
};

struct FleetMigrationOutcome {
  std::size_t user_index = 0;
  double at_s = 0.0;
  std::size_t from_device = 0;
  std::size_t to_device = 0;
  bool cold = false;
  // Longest gap between consecutive displayed frames in the migration
  // window [at_s - 0.5 s, at_s + 3 s] — what the viewer perceives as the
  // migration hiccup. Covers the straddling gap (last display before the
  // event to first display after).
  double blackout_ms = 0.0;
  // Frames this user lost for good from the event to the end of the run
  // (presenter gap-timeout reclaims plus governor void sheds).
  std::uint64_t frames_lost = 0;
};

struct FleetScenarioResult {
  // Indexed like config.users.
  std::vector<SessionMetrics> per_user;
  std::vector<double> mean_latency_ms;
  std::vector<double> p95_latency_ms;
  std::vector<double> p99_latency_ms;
  std::vector<std::uint64_t> frames_displayed_per_user;
  std::vector<std::uint64_t> frames_lost_per_user;  // drops + void sheds
  std::vector<std::uint64_t> migrations_per_user;
  // Indexed like config.devices.
  std::vector<std::size_t> final_sessions_per_device;
  std::vector<double> device_busy_fraction;
  std::vector<std::uint64_t> users_released_per_device;
  std::vector<std::uint64_t> renders_dropped_unresolvable_per_device;
  // Shared-store join handshakes each device answered (a live migration adds
  // the target's re-join on top of the source's original).
  std::vector<std::uint64_t> joins_answered_per_device;
  std::vector<FleetMigrationOutcome> migrations;
  core::ServiceFleetStats fleet;
};

FleetScenarioResult run_fleet_scenario(const FleetScenarioConfig& config);

// Deterministic analytic encoded-result-size model installed on every fleet
// device when `render_width == 0`: estimates the Turbo-encoded result bytes
// from the command stream's shape instead of rasterizing and encoding real
// pixels. This is what scales the fleet and soak harnesses from tens to
// hundreds of concurrent sessions — placement, transport, queueing, thermal,
// and cache behavior stay fully simulated; only per-pixel content work is
// replaced by the model.
[[nodiscard]] core::ServiceRuntime::SizeModel fleet_analytic_size_model();

}  // namespace gb::sim
