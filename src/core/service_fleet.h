// Service fleet (DESIGN.md §15): N ServiceRuntime instances — one per
// physical service device — serving many concurrent user sessions, with a
// fleet-level placement policy deciding which device hosts each new session.
//
// Placement extends the dispatcher's Eq. 4 per-request score to session
// granularity. For a session of steady-state workload r placed on device j:
//
//     score_j = (w^j + r) / c^j  +  alpha * q^j  +  beta * (s^j / S^j)
//
// where w^j and c^j are the GPU model's live queued-workload and effective
// fillrate (thermal throttling included — a hot device really is slower),
// q^j is the GPU queue depth in requests (per-request overhead Eq. 4's
// pixel-denominated term cannot see), and s^j / S^j is session tenancy
// against the device's cap (context-switch and memory pressure grow with
// resident sessions even when their queues are momentarily empty). There is
// no l^j network term: fleet devices sit on the same media, so per-device
// network delay does not differentiate placements — the per-*request*
// dispatcher keeps measuring it where it matters.
//
// The fleet does not own session transport: each user's GBoosterRuntime
// keeps its own dispatcher and talks to its placed device directly. The
// fleet owns the runtimes, the placement decision, the user -> device
// registry, and rebalance suggestions (which device to migrate from/to);
// executing a migration is GBoosterRuntime::migrate_service_device plus
// release_session here once the drain window closes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatcher.h"
#include "core/service_runtime.h"
#include "device/device_profiles.h"
#include "runtime/event_loop.h"

namespace gb::core {

struct FleetDeviceConfig {
  net::NodeId node = 0;
  device::DeviceProfile profile;
  // Session cap S^j: place_session never exceeds it. Beyond raw capacity,
  // each resident session costs a GL context replica and cache mirrors.
  int max_sessions = 8;
};

struct ServiceFleetConfig {
  // Template for every runtime in the fleet. `service.shared_store`, being a
  // shared_ptr, is the fleet-wide cross-session store when set: every device
  // resolves and publishes against the same registry, which is what lets a
  // migrated session's records stay deduplicated on the target (DESIGN.md
  // §14). Null keeps dedup off fleet-wide.
  ServiceRuntimeConfig service;
  // alpha: seconds of expected delay per queued GPU request (submission and
  // completion overhead per request, independent of its pixel count).
  double queue_depth_weight = 0.004;
  // beta: seconds of expected delay at full session tenancy (s^j == S^j).
  double tenancy_weight = 0.010;
};

struct ServiceFleetStats {
  std::uint64_t sessions_placed = 0;
  // place_session calls that found every device at its session cap.
  std::uint64_t placements_rejected = 0;
  std::uint64_t sessions_released = 0;
  std::uint64_t rebalances_suggested = 0;
};

class ServiceFleet {
 public:
  // Builds one ServiceRuntime per device. Each device's Eq. 4 capability is
  // its profile fillrate scaled by gpu_request_efficiency (request-granular
  // submission defeats driver pipelining), folded into the GPU model so
  // placement_score and device_info read the streamed capability directly.
  ServiceFleet(EventLoop& loop, ServiceFleetConfig config,
               std::vector<FleetDeviceConfig> devices);

  [[nodiscard]] std::size_t device_count() const { return runtimes_.size(); }
  [[nodiscard]] ServiceRuntime& runtime(std::size_t index) {
    return *runtimes_[index];
  }
  [[nodiscard]] const FleetDeviceConfig& device_config(
      std::size_t index) const {
    return devices_[index];
  }
  // The dispatcher-facing identity of device `index` — what a user runtime
  // passes to add_service_device / migrate_service_device. Capability is the
  // *current* effective fillrate (thermal state included).
  [[nodiscard]] ServiceDeviceInfo device_info(std::size_t index);

  // The placement score above, with live GPU state (syncs the device's
  // thermal/energy integration first, hence non-const).
  [[nodiscard]] double placement_score(std::size_t index,
                                       double workload_pixels);

  // The argmin-score device with session headroom, `exclude` (a
  // migration's source) skipped before it is scored. nullopt when no
  // candidate has room.
  [[nodiscard]] std::optional<std::size_t> coolest_with_headroom(
      double workload_pixels,
      std::optional<std::size_t> exclude = std::nullopt);

  // Picks coolest_with_headroom and registers the session there. nullopt (and placements_rejected) when every device is at
  // its cap — admission control at fleet granularity.
  std::optional<std::size_t> place_session(net::NodeId user,
                                           double workload_pixels);
  // Re-points an existing session's registry entry (migration bookkeeping;
  // the source runtime's session is torn down separately via
  // release_session semantics once its drain window closes).
  void register_session(net::NodeId user, std::size_t index);
  // Tears the session down on its device (ServiceRuntime::release_user —
  // closes the shared-store lease, cancels queued GPU work) and forgets the
  // placement. False when the user has no registered session.
  bool release_session(net::NodeId user);
  [[nodiscard]] std::optional<std::size_t> session_device(
      net::NodeId user) const;
  [[nodiscard]] std::size_t session_count(std::size_t index) const;
  // Users currently registered on device `index`, ascending by node id
  // (deterministic — the registry is an ordered map). Migration victim pool
  // for the FleetBalancer.
  [[nodiscard]] std::vector<net::NodeId> sessions_on(std::size_t index) const;
  [[nodiscard]] std::size_t total_sessions() const { return sessions_.size(); }

  // Hot-spot detection: returns (hot, cool) when the hottest device's score
  // exceeds `trigger_ratio` times the coolest's and the cool device has
  // session headroom — the suggestion to migrate one of hot's sessions to
  // cool. nullopt when the fleet is balanced (or nothing can move).
  std::optional<std::pair<std::size_t, std::size_t>> pick_rebalance(
      double workload_pixels, double trigger_ratio = 2.0);

  [[nodiscard]] const ServiceFleetStats& stats() const { return stats_; }

  // Registers fleet-level probes plus every runtime's own probes with an
  // invariant auditor: the registry must reconcile with per-runtime session
  // counts and respect every device's cap.
  void register_invariant_probes(runtime::InvariantAuditor& auditor,
                                 const std::string& component) const;

 private:
  ServiceFleetConfig config_;
  std::vector<FleetDeviceConfig> devices_;
  std::vector<std::unique_ptr<ServiceRuntime>> runtimes_;
  std::map<net::NodeId, std::size_t> sessions_;  // user -> device index
  ServiceFleetStats stats_;
};

}  // namespace gb::core
