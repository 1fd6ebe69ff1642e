#include "workloads.h"

#include "device/device_profiles.h"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The §VII-A setup shared by both session workloads: G1 on a Nexus 5, a
// 600x480 stream, Turbo quality 70.
gb::sim::SessionConfig paper_session(std::uint64_t seed, double duration_s) {
  const Seeds seeds = derive_seeds(seed);
  gb::sim::SessionConfig config;
  config.workload = gb::apps::g1_gta_san_andreas();
  config.user_device = gb::device::nexus5();
  config.duration_s = duration_s;
  config.seed = seeds.sim;
  config.fault_seed = seeds.fault;
  config.gbooster.nominal_width = 600;
  config.gbooster.nominal_height = 480;
  config.service.nominal_width = 600;
  config.service.nominal_height = 480;
  config.service.codec.quality = 70;
  config.service.worker_threads = 1;
  return config;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "offload_pixels") return Workload::kOffloadPixels;
  if (name == "fleet_churn") return Workload::kFleetChurn;
  if (name == "multidevice_lossy") return Workload::kMultideviceLossy;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kOffloadPixels:
      return "offload_pixels";
    case Workload::kFleetChurn:
      return "fleet_churn";
    case Workload::kMultideviceLossy:
      return "multidevice_lossy";
  }
  return "?";
}

bool is_session(Workload workload) {
  return workload != Workload::kFleetChurn;
}

Seeds derive_seeds(std::uint64_t seed) {
  return Seeds{splitmix64(seed), splitmix64(seed ^ 0x5eedfa17ull)};
}

double repeat_sim_seconds(Workload workload) {
  switch (workload) {
    case Workload::kOffloadPixels:
      return 20.0;
    case Workload::kFleetChurn:
      // Long enough for overload bursts, a device outage and a scripted
      // cold migration to land in every repeat.
      return 240.0;
    case Workload::kMultideviceLossy:
      return 20.0;
  }
  return 0.0;
}

double setup_sim_seconds(Workload workload) {
  // Sessions: one frame interval past the loading phase. The soak admits no
  // arrival within 5 s of its end, so its shortest run in which every slot
  // builds its stack and loads its app is 5.5 s.
  return workload == Workload::kFleetChurn ? 5.5 : 0.05;
}

gb::sim::SessionConfig session_config(Workload workload, std::uint64_t seed,
                                      double duration_s) {
  gb::sim::SessionConfig config = paper_session(seed, duration_s);
  if (workload == Workload::kOffloadPixels) {
    // The headline scenario on the pixel path: real render + Turbo encode of
    // every frame.
    config.service_devices = {gb::device::nvidia_shield()};
    config.service.render_width = 300;
    config.service.render_height = 240;
    config.service.content_sample_every = 1;
    return config;
  }
  // multidevice_lossy: the Fig. 7 plateau (three Shields) under
  // Gilbert–Elliott bursts, with FEC and multipath striping.
  config.service_devices = {gb::device::nvidia_shield(),
                            gb::device::nvidia_shield(),
                            gb::device::nvidia_shield()};
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 8;
  config.fault_burst.enabled = true;
  config.fault_burst.p_enter_burst = 0.005;
  config.fault_burst.p_exit_burst = 0.05;
  config.fault_burst.loss_burst = 0.8;
  config.switcher.policy = gb::core::SwitchPolicy::kMultipath;
  config.transport.fec_group_size = 4;
  config.service.transport.fec_group_size = 4;
  return config;
}

gb::sim::SoakPlan soak_plan(std::uint64_t seed, double duration_s) {
  gb::sim::SoakPlan plan;
  plan.duration_s = duration_s;
  plan.seed = derive_seeds(seed).sim;
  plan.churn.slots = 8;
  plan.churn.mean_session_s = 60.0;
  plan.churn.fps_cap = 8.0;
  // run_soak's default fleet, named here so the layer probes see it too.
  plan.devices = {gb::device::nvidia_shield(), gb::device::minix_neo_u1(),
                  gb::device::lg_g4()};
  plan.max_sessions_per_device = 6;
  plan.faults.link_flap_every_s = 45.0;
  plan.faults.device_outage_every_s = 180.0;
  plan.overload.every_s = 90.0;
  plan.overload.duration_s = 10.0;
  plan.cold_migrate_every_s = 150.0;
  plan.audit_interval_s = 5.0;
  return plan;
}

}  // namespace perfbench
