// Long-horizon soak & chaos harness (DESIGN.md §16): one seeded run that
// composes every scenario axis the repo has grown — session churn with
// node-id reuse, fleet live/cold migrations (scripted and balancer-driven),
// per-link Gilbert–Elliott bursts and radio flaps, service-device outage
// windows, overload bursts, and thermal throttling — for hours of simulated
// time, with a runtime::InvariantAuditor watching every long-lived table at
// a fixed sim-time cadence.
//
// What makes this a *soak* and not a longer fleet scenario:
//
//   - Genuine teardown. A departing session's full user stack is destroyed
//     and its node id detached from the medium, then the id is *reused* by
//     the slot's next session. Parked-but-alive stacks (the fleet harness
//     approach) cannot leak; destroyed-and-reused ones flush out every
//     dangling callback, stale transport table, and forgotten registration.
//   - Invariant audits. Components register probes (table bounds, sequence
//     monotonicity, reconciliation checks) once; the harness audits them
//     every `audit_interval_s` of sim time and fails fast with a dump that
//     names the probe, its last value, and its bound.
//   - Drift series. Global gauges (event-loop pending events, transport
//     table totals, shared-store residency, medium registrations) are
//     sampled at every audit; the report carries each gauge's value at the
//     10%-mark, its high-water, and its final value, so "bounded" is a
//     checkable claim (final ≈ 10%-mark, not monotone growth).
//   - Determinism. Everything observable folds into a single FNV-1a
//     fingerprint; two runs with the same plan and seed must produce the
//     same fingerprint bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet_balancer.h"
#include "core/qos_governor.h"
#include "core/service_fleet.h"
#include "device/device_profiles.h"
#include "net/fault_plan.h"

namespace gb::sim {

// Session churn: `slots` concurrent session slots, each cycling through
// arrive -> play -> depart -> (teardown, node-id reuse) -> respawn 1.5 s
// later with a freshly drawn workload — the app-switch axis rides on
// respawn.
struct SoakChurnConfig {
  std::size_t slots = 24;
  // Session lifetime is uniform in [0.5, 1.5] x mean (seeded).
  double mean_session_s = 45.0;
  // Issue-rate cap applied on top of each workload's target_fps: soak runs
  // simulate hours, so per-frame host cost is the budget that matters.
  double fps_cap = 20.0;
  // App canvas (the GameApp render target the command stream is recorded
  // against). Smaller than the interactive harnesses: texture upload bytes
  // scale with it, and soak cares about table drift, not content fidelity.
  int app_width = 192;
  int app_height = 144;
};

struct SoakFaultConfig {
  bool enabled = true;
  // Expected spacing between single-user radio flaps (uniform jitter x0.5..
  // x1.5, seeded); each flap kills one user's wifi link for 1 s.
  double link_flap_every_s = 45.0;
  // Service-device outage windows (the device-churn axis: a fleet device
  // drops off the air for 1.5 s and comes back with its state intact). 0
  // disables.
  double device_outage_every_s = 120.0;
  // Burst-loss process on the wifi link (per-datagram Gilbert–Elliott); a
  // mild burst chain is on by default — a soak without loss bursts would
  // never exercise retransmission-table cleanup under churn.
  net::GilbertElliottConfig burst{.enabled = true,
                                  .p_enter_burst = 5e-4,
                                  .p_exit_burst = 0.08,
                                  .loss_good = 0.0,
                                  .loss_burst = 0.7};
};

// Overload bursts: periodically every active session's reported workload
// (Eq. 4's r, and the real GPU cost submitted) multiplies by `factor` —
// a scene-complexity spike hitting the whole fleet at once.
struct SoakOverloadConfig {
  double every_s = 60.0;
  double duration_s = 8.0;
  double factor = 3.0;
};

struct SoakPlan {
  double duration_s = 180.0;
  std::uint64_t seed = 1;
  SoakChurnConfig churn;
  SoakFaultConfig faults;
  SoakOverloadConfig overload;
  // Service fleet; empty uses the default mixed fleet: two actively cooled
  // boxes plus a passively cooled LG G4 — the Fig. 1 thermal-trace device,
  // which genuinely throttles under sustained multi-session load and gives
  // the balancer a hot spot to drain.
  std::vector<device::DeviceProfile> devices;
  int max_sessions_per_device = 16;
  // Analytic mode (render_width == 0, fleet_analytic_size_model) unless a
  // positive size is given; soak defaults to analytic for scale.
  int render_width = 0;
  int render_height = 0;
  core::QosGovernorConfig qos;  // enabled by default in run_soak when unset
  bool shared_dedup = true;
  // Balancer-driven live migrations (the automatic pick_rebalance executor,
  // ticking every 2 s).
  bool auto_rebalance = true;
  core::FleetBalancerConfig balancer;
  // Scripted cold migrations at this cadence (0 disables): a random active
  // session cold-restarts on the coolest other device.
  double cold_migrate_every_s = 0.0;
  // Invariant-audit cadence (sim seconds). The run stops at the first audit
  // that finds a violation.
  double audit_interval_s = 5.0;
  // Attach a shared Tracer and audit its begin/end balance. Off by default:
  // the span log grows with frames displayed, which an hours-long run cannot
  // afford; short runs turn it on to cover the span-balance probe.
  bool attach_tracer = false;
};

// One sampled gauge's drift summary across the run.
struct SoakDriftSeries {
  std::string name;
  double at_10pct = 0.0;  // value at the first audit past 10% of duration
  double high_water = 0.0;
  double final_value = 0.0;
};

struct SoakReport {
  // Churn accounting.
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;  // full arrive->depart->teardown
  std::uint64_t placements_rejected = 0;
  // Viewer-facing aggregates across every session.
  std::uint64_t frames_displayed = 0;
  std::uint64_t frames_lost = 0;  // presenter reclaims + governor void sheds
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  // Migration axes.
  std::uint64_t auto_migrations = 0;
  std::uint64_t cold_migrations = 0;
  core::FleetBalancerStats balancer;
  // Invariant audit outcome.
  std::uint64_t audits_run = 0;
  std::uint64_t probes_evaluated = 0;
  std::uint64_t violations = 0;
  std::string violation_dump;  // empty when the run stayed clean
  bool halted_early = false;   // a violation stopped the run
  // Bounded-growth evidence, one series per global gauge.
  std::vector<SoakDriftSeries> drift;
  // Hot-spot pressure: max GPU queue depth across devices, sampled at every
  // audit. The balancer A/B compares these between auto_rebalance on/off.
  double hot_spot_mean_queue_depth = 0.0;
  double hot_spot_peak_queue_depth = 0.0;
  // Thermal axis: per-device fraction of audit samples spent throttled, and
  // the hottest temperature any device reached.
  std::vector<double> device_throttled_fraction;
  double max_temperature_c = 0.0;
  net::FaultPlanStats faults;
  core::ServiceFleetStats fleet;
  // FNV-1a over every deterministic counter above; equal seeds + equal plans
  // must produce equal fingerprints.
  std::uint64_t fingerprint = 0;
};

SoakReport run_soak(const SoakPlan& plan);

}  // namespace gb::sim
