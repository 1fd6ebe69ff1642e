#include "sim/session.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "core/service_fleet.h"
#include "net/fault_plan.h"
#include "runtime/metrics_registry.h"
#include "sim/testbed.h"

namespace gb::sim {
namespace {

// Shared app-pacing actor: runs the game loop, charging the render thread's
// CPU time, capping at target_fps, and blocking when the pipeline's pending
// budget is exhausted.
class AppDriver {
 public:
  AppDriver(EventLoop& loop, apps::GameApp& app, const apps::TouchScript& touch,
            const SessionConfig& config, Rng rng)
      : loop_(loop),
        app_(app),
        touch_(touch),
        config_(config),
        rng_(rng),
        cpu_frame_s_(config.workload.cpu_frame_seconds /
                     config.user_device.cpu_perf_index),
        min_interval_(seconds(1.0 / config.workload.target_fps)) {}

  // `can_issue` gates the pipeline; `on_frame_emitted` is invoked right
  // after the app's GLES calls for the frame have been made.
  std::function<bool()> can_issue;
  std::function<void()> on_frame_emitted;

  void start() { schedule_attempt(loop_.now()); }

  // Wake the driver after pipeline room opens up.
  void notify_room() {
    if (!waiting_for_room_) return;
    waiting_for_room_ = false;
    schedule_attempt(loop_.now());
  }

  [[nodiscard]] std::uint64_t frames_emitted() const { return frames_; }
  [[nodiscard]] double render_thread_busy_s() const {
    return static_cast<double>(frames_) * cpu_frame_s_;
  }

 private:
  void schedule_attempt(SimTime at) {
    loop_.schedule_at(std::max(at, next_allowed_), [this] { attempt(); });
  }

  void attempt() {
    if (loop_.now().seconds() >= config_.duration_s) return;
    if (!can_issue()) {
      waiting_for_room_ = true;
      return;
    }
    // Render-thread work for this frame, then emission.
    loop_.schedule_after(seconds(cpu_frame_s_), [this] {
      const double now_s = loop_.now().seconds();
      const bool burst = touch_.burst_active(now_s);
      // Scene changes: burst onset or background streaming.
      if (burst && !last_burst_ && rng_.chance(0.7)) {
        app_.trigger_scene_change();
      } else if (rng_.chance(config_.workload.scene_change_rate_hz *
                             cpu_frame_s_ * 4.0)) {
        app_.trigger_scene_change();
      }
      last_burst_ = burst;
      app_.render_frame(now_s, burst);
      ++frames_;
      if (on_frame_emitted) on_frame_emitted();
      next_allowed_ = loop_.now() + min_interval_ - seconds(cpu_frame_s_);
      schedule_attempt(loop_.now());
    });
  }

  EventLoop& loop_;
  apps::GameApp& app_;
  const apps::TouchScript& touch_;
  const SessionConfig& config_;
  Rng rng_;
  double cpu_frame_s_;
  SimTime min_interval_;
  SimTime next_allowed_;
  bool waiting_for_room_ = false;
  bool last_burst_ = false;
  std::uint64_t frames_ = 0;
};

apps::TouchScriptConfig session_touch_config(const SessionConfig& config) {
  apps::TouchScriptConfig tc =
      touch_script_config(config.workload, config.duration_s);
  tc.base_touch_rate_hz = config.workload.touch_rate_hz;
  tc.burst_touch_rate_hz = config.workload.touch_burst_rate_hz;
  return tc;
}

double cpu_usage_percent(const SessionConfig& config, double render_busy_s,
                         double offload_busy_s) {
  const double duration = config.duration_s;
  const double cores = config.user_device.cpu_cores;
  const double busy_cores = config.workload.cpu_background_cores +
                            render_busy_s / duration +
                            offload_busy_s / duration + 0.35 /* system */;
  return 100.0 * std::min(1.0, busy_cores / cores);
}

void sample_gpu_traces(EventLoop& loop, device::GpuModel& gpu,
                       const SessionConfig& config, SessionResult& result) {
  if (!config.collect_gpu_trace) return;
  const double t = loop.now().seconds();
  gpu.sync();
  result.gpu_frequency_trace.emplace_back(t, gpu.current_frequency_mhz());
  result.gpu_temperature_trace.emplace_back(t, gpu.temperature_c());
  if (t + 2.0 <= config.duration_s) {
    loop.schedule_after(seconds(2.0), [&loop, &gpu, &config, &result] {
      sample_gpu_traces(loop, gpu, config, result);
    });
  }
}

SessionResult run_local(const SessionConfig& config) {
  EventLoop loop;
  Rng rng(config.seed);
  SessionResult result;

  // The "genuine driver": a tiny-content DirectBackend (pixels are not used
  // by any local-session metric; the GPU cost model below provides timing).
  hooking::DynamicLinker linker;
  auto backend =
      std::make_unique<gles::DirectBackend>(64, 48, gles::PresentFn{});
  linker.register_library(
      hooking::LibraryImage::exporting_all("libGLESv2.so", backend.get()));
  auto api = linker.link_gles("libGLESv2.so");

  device::GpuModel gpu(loop, config.user_device.gpu);
  apps::GameApp app(config.workload, *api, 64, 48, rng.fork());
  app.setup();

  const apps::TouchScript touch(session_touch_config(config), rng.fork());
  AppDriver driver(loop, app, touch, config, rng.fork());
  MetricsCollector metrics;

  // Local pipeline: double buffering — up to 2 rendering requests between
  // the application and the GPU; SwapBuffers blocks beyond that.
  int pending = 0;
  std::uint64_t displayed = 0;
  driver.can_issue = [&pending] { return pending < 2; };
  driver.on_frame_emitted = [&] {
    ++pending;
    const SimTime issued = loop.now();
    gpu.submit(config.workload.gpu_workload_pixels,
               [&, issued] {
                 --pending;
                 ++displayed;
                 metrics.on_frame_displayed(loop.now(), loop.now() - issued);
                 driver.notify_room();
               });
  };

  sample_gpu_traces(loop, gpu, config, result);
  driver.start();
  loop.run_until(seconds(config.duration_s));

  result.metrics = metrics.finalize(seconds(config.duration_s));
  // Local response time is the frame interval (Eq. 5 with t_p = 0).
  if (result.metrics.median_fps > 0) {
    result.metrics.avg_response_ms = 1000.0 / result.metrics.median_fps;
  }

  // Energy: CPU + GPU + display. Radios are off (airplane mode, §VII-C).
  energy::EnergyMeter cpu_meter;
  const double usage =
      cpu_usage_percent(config, driver.render_thread_busy_s(), 0.0);
  cpu_meter.add_cpu(seconds(config.duration_s), usage / 100.0,
                    config.user_device.cpu_power);
  result.energy.cpu_j = cpu_meter.joules();
  gpu.sync();
  result.energy.gpu_j = gpu.energy_joules();
  energy::EnergyMeter display_meter;
  display_meter.add_display(seconds(config.duration_s),
                            config.user_device.display_power);
  result.energy.display_j = display_meter.joules();
  result.avg_power_w = result.energy.total() / config.duration_s;
  result.cpu_usage_percent = usage;
  return result;
}

void accumulate_transport(net::ReliableStats& into,
                          const net::ReliableStats& from) {
  into.messages_sent += from.messages_sent;
  into.messages_delivered += from.messages_delivered;
  into.chunks_sent += from.chunks_sent;
  into.chunks_retransmitted += from.chunks_retransmitted;
  into.messages_abandoned += from.messages_abandoned;
  into.payload_bytes_sent += from.payload_bytes_sent;
  into.chunks_dropped_at_source += from.chunks_dropped_at_source;
  into.unreliable_sent += from.unreliable_sent;
  into.unreliable_delivered += from.unreliable_delivered;
  into.rtt_samples += from.rtt_samples;
  into.fec_parity_sent += from.fec_parity_sent;
  into.fec_parity_bytes += from.fec_parity_bytes;
  into.fec_recovered_chunks += from.fec_recovered_chunks;
  into.fec_parity_rejected += from.fec_parity_rejected;
  into.fec_recovered_acks += from.fec_recovered_acks;
  into.path_reroutes += from.path_reroutes;
}

SessionResult run_offload(const SessionConfig& config) {
  check(!config.service_devices.empty(), "offload needs service devices");
  EventLoop loop;
  Rng rng(config.seed);
  SessionResult result;

  // --- network -----------------------------------------------------------
  net::MediumConfig wifi_cfg;
  wifi_cfg.propagation = ms(0.4);
  wifi_cfg.loss_rate = config.wifi_loss_rate;
  net::MediumConfig bt_cfg;
  bt_cfg.propagation = ms(1.2);
  bt_cfg.loss_rate = config.bt_loss_rate;
  net::Medium wifi(loop, wifi_cfg, rng.fork(), "wifi");
  net::Medium bt(loop, bt_cfg, rng.fork(), "bt");

  constexpr net::NodeId kUserNode = 1;

  // Fault injection: one plan drives both media (and the services' own
  // crash-window checks), so a scenario is a single seeded description. The
  // media identify themselves by link id (wifi=0, bt=1) so loss chains and
  // flap windows are per link.
  std::optional<net::FaultPlan> fault_plan;
  if (!config.service_outages.empty() || config.fault_burst.enabled ||
      !config.link_bursts.empty() || !config.link_flaps.empty()) {
    net::FaultPlanConfig fcfg;
    fcfg.seed = config.fault_seed;
    fcfg.burst = config.fault_burst;
    fcfg.link_bursts = config.link_bursts;
    for (const SessionConfig::ServiceOutageSpec& spec :
         config.service_outages) {
      check(spec.device_index <
                config.service_devices.size() + config.hot_joins.size(),
            "outage names a device the session does not have");
      net::OutageWindow window;
      window.node = static_cast<net::NodeId>(100 + spec.device_index);
      window.start = seconds(spec.start_s);
      window.end = seconds(spec.end_s);
      fcfg.outages.push_back(window);
    }
    for (const SessionConfig::LinkFlapSpec& spec : config.link_flaps) {
      net::LinkOutageWindow window;
      window.link = spec.link;
      window.node = kUserNode;
      window.start = seconds(spec.start_s);
      window.end = seconds(spec.end_s);
      fcfg.link_outages.push_back(window);
    }
    fault_plan.emplace(std::move(fcfg));
    wifi.set_fault_plan(&*fault_plan, /*link=*/0);
    bt.set_fault_plan(&*fault_plan, /*link=*/1);
  }

  // --- tracing -----------------------------------------------------------
  // One tracer serves every component; spans interleave on per-node tracks.
  std::optional<runtime::Tracer> internal_tracer;
  runtime::Tracer* tracer = config.tracer;
  if (tracer == nullptr && config.collect_stage_breakdown) {
    internal_tracer.emplace();
    tracer = &*internal_tracer;
  }

  // --- service devices ------------------------------------------------------
  // Hot-join devices are fully built (runtime, radios, media binding) from
  // the start — they are powered-on peers — but stay outside the multicast
  // group and the dispatcher until their join fires below.
  std::vector<core::FleetDeviceConfig> device_configs;
  for (std::size_t i = 0;
       i < config.service_devices.size() + config.hot_joins.size(); ++i) {
    device_configs.push_back(core::FleetDeviceConfig{
        static_cast<net::NodeId>(100 + i),
        i < config.service_devices.size()
            ? config.service_devices[i]
            : config.hot_joins[i - config.service_devices.size()].profile});
  }
  core::ServiceFleetConfig fleet_config;
  fleet_config.service = config.service;
  fleet_config.service.tracer = tracer;
  core::ServiceFleet fleet(loop, std::move(fleet_config),
                           std::move(device_configs));
  std::vector<std::unique_ptr<net::RadioInterface>> service_radios;
  std::vector<core::ServiceDeviceInfo> device_infos;
  std::vector<core::ServiceDeviceInfo> hot_join_infos;
  for (std::size_t i = 0; i < fleet.device_count(); ++i) {
    core::ServiceRuntime& service = fleet.runtime(i);
    const core::ServiceDeviceInfo info = fleet.device_info(i);
    if (fault_plan.has_value()) service.set_fault_plan(&*fault_plan);
    if (tracer != nullptr) {
      tracer->set_track_name(info.node, info.name);
      service.endpoint().set_tracer(tracer);
    }
    service_radios.push_back(std::make_unique<net::RadioInterface>(
        loop, net::wifi_radio_config(), info.name + "-wifi"));
    service_radios.push_back(std::make_unique<net::RadioInterface>(
        loop, net::bluetooth_radio_config(), info.name + "-bt"));
    service.endpoint().bind(wifi, (service_radios.end() - 2)->get());
    service.endpoint().bind(bt, service_radios.back().get());
    if (i < config.service_devices.size()) {
      wifi.join_group(config.gbooster.state_group, info.node);
      bt.join_group(config.gbooster.state_group, info.node);
      device_infos.push_back(info);
    } else {
      hot_join_infos.push_back(info);
    }
  }

  // --- the user device, its app hooked through GBooster ----------------------
  std::optional<UserStack> user;
  UserStackSpec spec;
  spec.node = kUserNode;
  spec.name = "user";
  spec.wifi = &wifi;
  spec.bt = &bt;
  spec.transport = config.transport;
  spec.gbooster = config.gbooster;
  spec.gbooster.tracer = tracer;
  spec.gbooster.service_encode_mpps =
      config.service_devices.front().turbo_encode_mpps;
  spec.gbooster.local_capability_pps = config.user_device.gpu.fillrate_pps;
  spec.gbooster.link_bandwidth_bps = [&user, &wifi] {
    return user->endpoint.route() == &wifi
               ? net::wifi_radio_config().bandwidth_bps
               : net::bluetooth_radio_config().bandwidth_bps;
  };
  spec.devices = std::move(device_infos);
  spec.workload_pixels = [&config] {
    return config.workload.gpu_workload_pixels;
  };
  spec.app = config.workload;
  spec.app_width = config.gbooster.nominal_width;
  spec.app_height = config.gbooster.nominal_height;
  spec.touch = session_touch_config(config);
  user.emplace(loop, spec, rng);
  core::GBoosterRuntime& gbooster = user->gbooster;
  if (tracer != nullptr) {
    tracer->set_track_name(kUserNode, "user");
    user->endpoint.set_tracer(tracer);
  }

  // Hot-joins: enter the multicast group, then hand the device to the
  // runtime (which snapshots it and opens it to dispatch).
  for (std::size_t h = 0; h < config.hot_joins.size(); ++h) {
    const core::ServiceDeviceInfo info = hot_join_infos[h];
    loop.schedule_at(seconds(config.hot_joins[h].at_s),
                     [&wifi, &bt, &gbooster, &config, info] {
                       wifi.join_group(config.gbooster.state_group, info.node);
                       bt.join_group(config.gbooster.state_group, info.node);
                       gbooster.add_service_device(info);
                     });
  }

  std::vector<net::ReliableEndpoint*> switched_endpoints{&user->endpoint};
  for (std::size_t i = 0; i < fleet.device_count(); ++i) {
    switched_endpoints.push_back(&fleet.runtime(i).endpoint());
  }
  core::SwitcherConfig swcfg = config.switcher;
  swcfg.tracer = tracer;
  core::InterfaceSwitcher switcher(loop, swcfg, switched_endpoints, wifi,
                                   user->wifi_radio, bt, *user->bt_radio);

  const apps::TouchScript& touch = user->touch;
  AppDriver driver(loop, user->app, touch, config, rng.fork());
  MetricsCollector metrics;

  driver.can_issue = [&gbooster] { return gbooster.can_issue_frame(); };
  gbooster.set_display_handler(
      [&](std::uint64_t sequence, SimTime latency, const Image& frame) {
        (void)sequence;
        (void)frame;
        metrics.on_frame_displayed(loop.now(), latency);
        driver.notify_room();
      });

  // --- traffic observation (100 ms cadence, §V-B) -----------------------------
  std::uint64_t last_tx = 0;
  std::uint64_t last_rx = 0;
  std::uint64_t last_misses = 0;
  std::uint64_t total_traffic_bytes = 0;
  const double interval_s = config.switcher.observe_interval.seconds();
  std::function<void()> observe = [&] {
    const double now_s = loop.now().seconds();
    const auto& stats = gbooster.stats();
    predict::TrafficSample sample;
    sample.traffic_bytes =
        static_cast<double>((stats.bytes_sent - last_tx) +
                            (stats.bytes_received - last_rx));
    last_tx = stats.bytes_sent;
    last_rx = stats.bytes_received;
    total_traffic_bytes += static_cast<std::uint64_t>(sample.traffic_bytes);
    sample.touch_rate =
        touch.touches_in(now_s - interval_s, now_s) / interval_s;
    const wire::FrameProfile& profile = gbooster.recorder().last_frame_profile();
    sample.command_count = static_cast<double>(profile.command_count);
    sample.texture_count = static_cast<double>(profile.texture_bind_count);
    const std::uint64_t misses = stats.render_cache.misses;
    sample.command_diff = static_cast<double>(misses - last_misses);
    last_misses = misses;

    switcher.observe_interval(sample);
    if (config.switcher.policy == core::SwitchPolicy::kMultipath) {
      // The governor's proactive bitrate ladder prices its rungs against the
      // predicted aggregate deliverable capacity of the striped paths.
      gbooster.note_capacity_forecast(
          switcher.predicted_aggregate_capacity_bps());
    }
    if (config.collect_traffic_trace) {
      result.traffic_trace.push_back(sample);
    }
    if (now_s + interval_s <= config.duration_s) {
      loop.schedule_after(config.switcher.observe_interval, observe);
    }
  };
  loop.schedule_after(config.switcher.observe_interval, observe);

  driver.start();
  loop.run_until(seconds(config.duration_s));

  result.metrics = metrics.finalize(seconds(config.duration_s));
  if (tracer != nullptr && config.collect_stage_breakdown) {
    fill_stage_breakdown(*tracer, result.metrics);
  }
  // Eq. 5: response = frame interval + offload intermediate time t_p.
  // (avg_issue_to_display_ms keeps the measured mean the stage spans sum to.)
  const auto& gstats = gbooster.stats();
  if (result.metrics.median_fps > 0 && gstats.frames_displayed > 0) {
    result.metrics.avg_response_ms =
        1000.0 / result.metrics.median_fps +
        gstats.t_p_ms_sum / static_cast<double>(gstats.frames_displayed);
  }

  // --- energy ------------------------------------------------------------
  const double offload_cpu_s = gstats.serialize_seconds + gstats.decode_seconds;
  const double usage = cpu_usage_percent(
      config, driver.render_thread_busy_s(), offload_cpu_s);
  energy::EnergyMeter cpu_meter;
  cpu_meter.add_cpu(seconds(config.duration_s), usage / 100.0,
                    config.user_device.cpu_power);
  result.energy.cpu_j = cpu_meter.joules();
  // The local GPU idles except for fallback frames rendered during
  // all-devices-down windows.
  energy::EnergyMeter gpu_meter;
  const double gpu_util =
      std::min(1.0, gstats.local_render_seconds / config.duration_s);
  gpu_meter.add_gpu(seconds(config.duration_s), gpu_util, 1.0,
                    config.user_device.gpu.power);
  result.energy.gpu_j = gpu_meter.joules();
  energy::EnergyMeter display_meter;
  display_meter.add_display(seconds(config.duration_s),
                            config.user_device.display_power);
  result.energy.display_j = display_meter.joules();
  result.energy.wifi_j = user->wifi_radio.energy_joules();
  result.energy.bt_j = user->bt_radio->energy_joules();
  result.avg_power_w = result.energy.total() / config.duration_s;

  result.avg_traffic_mbps = static_cast<double>(total_traffic_bytes) * 8.0 /
                            config.duration_s / 1e6;
  result.cpu_usage_percent = usage;
  result.memory_overhead_bytes = gbooster.memory_overhead_bytes();
  result.switcher = switcher.stats();
  result.gbooster = gstats;
  if (fault_plan.has_value()) result.faults = fault_plan->stats();
  result.transport = user->endpoint.stats();
  result.user_path_wifi = user->endpoint.path_stats(0);
  result.user_path_bt = user->endpoint.path_stats(1);
  for (std::size_t i = 0; i < fleet.device_count(); ++i) {
    core::ServiceRuntime& service = fleet.runtime(i);
    result.requests_lost_to_faults += service.stats().requests_lost_to_faults;
    result.requests_shed_admission += service.stats().requests_shed_admission;
    accumulate_transport(result.service_transport,
                         service.endpoint().stats());
  }
  return result;
}

}  // namespace

SessionResult run_session(const SessionConfig& config) {
  return config.service_devices.empty() ? run_local(config)
                                        : run_offload(config);
}

void export_transport_metrics(runtime::MetricsRegistry& registry,
                              const SessionResult& result) {
  // Downlink resilience counters live on the user endpoint (it reconstructs
  // and reroutes); parity overhead is spent by the service endpoints.
  registry.counter("transport_fec_recovered_chunks")
      .add(result.transport.fec_recovered_chunks);
  registry.counter("transport_fec_parity_rejected")
      .add(result.transport.fec_parity_rejected);
  registry.counter("transport_parity_overhead_bytes")
      .add(result.service_transport.fec_parity_bytes);
  registry.counter("transport_fec_parity_sent")
      .add(result.service_transport.fec_parity_sent);
  registry.counter("transport_path_reroutes")
      .add(result.transport.path_reroutes +
           result.service_transport.path_reroutes);
  registry.counter("transport_chunks_retransmitted")
      .add(result.transport.chunks_retransmitted +
           result.service_transport.chunks_retransmitted);
  registry.counter("transport_messages_abandoned")
      .add(result.transport.messages_abandoned +
           result.service_transport.messages_abandoned);
  registry.counter("transport_rtt_samples").add(result.transport.rtt_samples);
  registry.gauge("path_wifi_weight").set(result.user_path_wifi.weight);
  registry.gauge("path_bt_weight").set(result.user_path_bt.weight);
  registry.gauge("path_wifi_srtt_ms").set(result.user_path_wifi.srtt_ms);
  registry.gauge("path_bt_srtt_ms").set(result.user_path_bt.srtt_ms);
  registry.gauge("path_wifi_bytes_sent")
      .set(static_cast<double>(result.user_path_wifi.bytes_sent));
  registry.gauge("path_bt_bytes_sent")
      .set(static_cast<double>(result.user_path_bt.bytes_sent));
}

}  // namespace gb::sim
