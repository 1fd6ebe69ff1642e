#include "core/service_fleet.h"

#include "common/error.h"

namespace gb::core {

ServiceFleet::ServiceFleet(EventLoop& loop, ServiceFleetConfig config,
                           std::vector<FleetDeviceConfig> devices)
    : config_(std::move(config)), devices_(std::move(devices)) {
  check(!devices_.empty(), "fleet needs at least one service device");
  for (FleetDeviceConfig& dev : devices_) {
    check(dev.max_sessions > 0, "fleet device needs a positive session cap");
    // Fold the streamed-submission efficiency into the GPU model once, so
    // every capability readout below is the c^j the dispatcher should see.
    dev.profile.gpu.fillrate_pps *= dev.profile.gpu_request_efficiency;
    dev.profile.gpu_request_efficiency = 1.0;
    runtimes_.push_back(std::make_unique<ServiceRuntime>(
        loop, dev.node, dev.profile, config_.service));
  }
}

ServiceDeviceInfo ServiceFleet::device_info(std::size_t index) {
  check(index < runtimes_.size(), "fleet device index out of range");
  device::GpuModel& gpu = runtimes_[index]->gpu();
  gpu.sync();
  return ServiceDeviceInfo{devices_[index].node, devices_[index].profile.name,
                           gpu.effective_fillrate_pps()};
}

double ServiceFleet::placement_score(std::size_t index,
                                     double workload_pixels) {
  check(index < runtimes_.size(), "fleet device index out of range");
  ServiceRuntime& rt = *runtimes_[index];
  device::GpuModel& gpu = rt.gpu();
  gpu.sync();
  const double queue_s =
      (gpu.queued_workload_pixels() + workload_pixels) /
      gpu.effective_fillrate_pps();
  const double depth_s =
      config_.queue_depth_weight * static_cast<double>(gpu.queue_depth());
  // Tenancy must come from the placement registry, not the runtime's
  // connected-user count: a placed session is reserved here before its first
  // message ever reaches the device, and back-to-back placements would all
  // land on one device if reservations were invisible until traffic flowed.
  const double tenancy_s =
      config_.tenancy_weight * static_cast<double>(session_count(index)) /
      static_cast<double>(devices_[index].max_sessions);
  return queue_s + depth_s + tenancy_s;
}

std::optional<std::size_t> ServiceFleet::coolest_with_headroom(
    double workload_pixels, std::optional<std::size_t> exclude) {
  std::optional<std::size_t> best;
  double best_score = 0.0;
  for (std::size_t j = 0; j < runtimes_.size(); ++j) {
    if (j == exclude ||
        session_count(j) >=
            static_cast<std::size_t>(devices_[j].max_sessions)) {
      continue;
    }
    const double score = placement_score(j, workload_pixels);
    if (!best.has_value() || score < best_score) {
      best = j;
      best_score = score;
    }
  }
  return best;
}

std::optional<std::size_t> ServiceFleet::place_session(
    net::NodeId user, double workload_pixels) {
  check(!sessions_.contains(user), "user already has a session placed");
  const std::optional<std::size_t> best = coolest_with_headroom(workload_pixels);
  if (!best.has_value()) {
    stats_.placements_rejected++;
    return std::nullopt;
  }
  sessions_[user] = *best;
  stats_.sessions_placed++;
  return best;
}

void ServiceFleet::register_session(net::NodeId user, std::size_t index) {
  check(index < runtimes_.size(), "fleet device index out of range");
  sessions_[user] = index;
}

bool ServiceFleet::release_session(net::NodeId user) {
  const auto it = sessions_.find(user);
  if (it == sessions_.end()) return false;
  (void)runtimes_[it->second]->release_user(user);
  sessions_.erase(it);
  stats_.sessions_released++;
  return true;
}

std::optional<std::size_t> ServiceFleet::session_device(
    net::NodeId user) const {
  const auto it = sessions_.find(user);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

std::size_t ServiceFleet::session_count(std::size_t index) const {
  // The placement registry, not ServiceRuntime::user_count(): a placed
  // session is reserved here before its first message reaches the device,
  // and a migrated-away session stops counting against the source as soon
  // as it is re-registered even though the source runtime keeps serving the
  // drain tail for a few hundred milliseconds.
  std::size_t count = 0;
  for (const auto& [user, device] : sessions_) {
    if (device == index) count++;
  }
  return count;
}

std::vector<net::NodeId> ServiceFleet::sessions_on(std::size_t index) const {
  std::vector<net::NodeId> users;
  for (const auto& [user, device] : sessions_) {
    if (device == index) users.push_back(user);
  }
  return users;
}

void ServiceFleet::register_invariant_probes(
    runtime::InvariantAuditor& auditor, const std::string& component) const {
  for (std::size_t j = 0; j < runtimes_.size(); ++j) {
    const auto cap = static_cast<std::size_t>(devices_[j].max_sessions);
    auditor.add_bound(component, "device" + std::to_string(j) + ".sessions",
                      [this, j] { return static_cast<double>(session_count(j)); },
                      static_cast<double>(cap));
    // A runtime may briefly serve one more user than the registry says (the
    // drain tail of a migrated-away session) but never grows past cap + the
    // sessions currently draining; 2x cap is a safe wedge detector.
    runtimes_[j]->register_invariant_probes(
        auditor, component + ".device" + std::to_string(j), cap * 2);
  }
  auditor.add_probe(component, "registry_reconciles", [this] {
    std::size_t per_device = 0;
    for (std::size_t j = 0; j < runtimes_.size(); ++j) {
      per_device += session_count(j);
    }
    runtime::InvariantAuditor::Report r;
    r.ok = per_device == sessions_.size();
    r.detail = "sum(per-device)=" + std::to_string(per_device) +
               " registry=" + std::to_string(sessions_.size()) +
               (r.ok ? "" : "  VIOLATED");
    return r;
  });
}

std::optional<std::pair<std::size_t, std::size_t>> ServiceFleet::pick_rebalance(
    double workload_pixels, double trigger_ratio) {
  std::size_t hot = runtimes_.size();
  std::size_t cool = runtimes_.size();
  double hot_score = 0.0;
  double cool_score = 0.0;
  for (std::size_t j = 0; j < runtimes_.size(); ++j) {
    const double score = placement_score(j, workload_pixels);
    // Hot candidates must have a session to move; cool ones, room for it.
    if (session_count(j) > 0 && (hot == runtimes_.size() || score > hot_score)) {
      hot = j;
      hot_score = score;
    }
    if (session_count(j) < static_cast<std::size_t>(devices_[j].max_sessions) &&
        (cool == runtimes_.size() || score < cool_score)) {
      cool = j;
      cool_score = score;
    }
  }
  if (hot == runtimes_.size() || cool == runtimes_.size() || hot == cool) {
    return std::nullopt;
  }
  if (hot_score <= trigger_ratio * cool_score) return std::nullopt;
  stats_.rebalances_suggested++;
  return std::make_pair(hot, cool);
}

}  // namespace gb::core
