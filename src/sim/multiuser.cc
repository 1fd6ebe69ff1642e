#include "sim/multiuser.h"

#include <deque>
#include <memory>
#include <set>

#include "common/error.h"
#include "sim/testbed.h"

namespace gb::sim {

MultiUserResult run_multiuser_session(const MultiUserConfig& config) {
  check(!config.users.empty(), "need at least one user");
  EventLoop loop;
  Rng rng(config.seed);

  // The shared service device.
  core::ServiceRuntimeConfig service_config;
  service_config.render_width = config.render_width;
  service_config.render_height = config.render_height;
  service_config.content_sample_every = config.content_sample_every;
  service_config.admission_queue_cap = config.admission_queue_cap;
  const std::shared_ptr<compress::SharedStoreRegistry> shared_store =
      dedup_registry(config.shared_dedup, config.shared_store);
  service_config.shared_store = shared_store;
  SharedWifiFleet devices(loop, rng.fork(), service_config, {config.service_device},
                          /*first_node=*/100,
                          static_cast<int>(config.users.size()));
  core::ServiceRuntime& service = devices.fleet.runtime(0);
  const core::ServiceDeviceInfo service_info = devices.fleet.device_info(0);

  std::vector<std::unique_ptr<UserStack>> stacks;
  for (std::size_t u = 0; u < config.users.size(); ++u) {
    const MultiUserParticipant& participant = config.users[u];
    UserStackSpec spec;
    spec.node = static_cast<net::NodeId>(1 + u);
    spec.name = "user" + std::to_string(u);
    spec.wifi = &devices.wifi;
    spec.gbooster.max_pending_requests = kMultiUserMaxPending;
    spec.gbooster.request_priority = participant.priority;
    spec.gbooster.state_group = 0xff00 + static_cast<net::NodeId>(u);
    spec.gbooster.qos = config.qos;
    if (config.shared_dedup) {
      spec.gbooster.shared_dedup = true;
      spec.gbooster.app_id = participant.app_id;
      spec.gbooster.join_delay = seconds(participant.join_delay_s);
    }
    spec.devices = {service_info};
    const double workload = participant.workload.gpu_workload_pixels;
    spec.workload_pixels = [workload] { return workload; };
    spec.app = participant.workload;
    spec.touch = touch_script_config(participant.workload, config.duration_s);
    stacks.push_back(std::make_unique<UserStack>(loop, spec, rng));
  }

  std::vector<MetricsCollector> metrics(stacks.size());
  std::deque<AppPacer> pacers;
  for (std::size_t u = 0; u < stacks.size(); ++u) {
    pacers.emplace_back(loop, config.duration_s);
    stacks[u]->gbooster.set_display_handler(
        [&, u](std::uint64_t, SimTime latency, const Image&) {
          metrics[u].on_frame_displayed(loop.now(), latency);
          pacers[u].on_display();
        });
    const apps::WorkloadSpec& workload = config.users[u].workload;
    pacers[u].start(*stacks[u],
                    workload.cpu_frame_seconds /
                        config.users[u].phone.cpu_perf_index,
                    seconds(1.0 / workload.target_fps));
  }

  loop.run_until(seconds(config.duration_s));

  MultiUserResult result;
  for (std::size_t u = 0; u < stacks.size(); ++u) {
    result.per_user.push_back(metrics[u].finalize(seconds(config.duration_s)));
    result.service_sheds_per_user.push_back(
        service.sheds_for_user(static_cast<net::NodeId>(1 + u)));
    const core::GBoosterStats& gstats = stacks[u]->gbooster.stats();
    result.governor_sheds_per_user.push_back(gstats.frames_shed_window +
                                             gstats.frames_shed_deadline +
                                             gstats.frames_shed_void);
    result.bytes_sent_per_user.push_back(gstats.bytes_sent);
    result.shared_hits_per_user.push_back(gstats.render_cache.shared_hits +
                                          gstats.state_cache.shared_hits);
    const LatencySummary latency = metrics[u].latency_summary();
    result.mean_latency_ms.push_back(latency.mean_ms);
    result.p95_latency_ms.push_back(latency.p95_ms);
  }
  service.gpu().sync();
  result.service_gpu_busy_fraction =
      service.gpu().busy_seconds() / config.duration_s;
  if (shared_store != nullptr) {
    std::set<std::uint64_t> app_ids;
    for (const MultiUserParticipant& participant : config.users) {
      app_ids.insert(participant.app_id);
    }
    for (const std::uint64_t app_id : app_ids) {
      result.shared_store_resident_bytes +=
          shared_store->store_for(app_id).resident_bytes();
    }
  }
  return result;
}

}  // namespace gb::sim
