#include "sim/testbed.h"

#include <algorithm>
#include <utility>

#include "sim/fleet.h"

namespace gb::sim {
namespace {

std::optional<net::RadioInterface> bluetooth_radio(EventLoop& loop,
                                                   const UserStackSpec& spec) {
  if (spec.bt == nullptr) return std::nullopt;
  return std::optional<net::RadioInterface>(
      std::in_place, loop, net::bluetooth_radio_config(), spec.name + "-bt");
}

// Binds the endpoint to the media before the runtime that sends on it is
// built; returns it for the runtime's initializer.
net::ReliableEndpoint& bind_media(net::ReliableEndpoint& endpoint,
                                  const UserStackSpec& spec,
                                  net::RadioInterface& wifi_radio,
                                  std::optional<net::RadioInterface>& bt_radio) {
  endpoint.bind(*spec.wifi, &wifi_radio);
  if (spec.bt != nullptr) endpoint.bind(*spec.bt, &*bt_radio);
  return endpoint;
}

// The app links libGLESv2 through GBooster's hooks, which forward to the
// genuine driver.
std::unique_ptr<gles::GlesApi> link_hooked(hooking::DynamicLinker& linker,
                                           gles::DirectBackend& genuine,
                                           core::GBoosterRuntime& gbooster) {
  linker.register_library(
      hooking::LibraryImage::exporting_all("libGLESv2.so", &genuine));
  gbooster.install(linker);
  return linker.link_gles("libGLESv2.so");
}

}  // namespace

apps::TouchScriptConfig touch_script_config(const apps::WorkloadSpec& workload,
                                            double duration_s) {
  apps::TouchScriptConfig config;
  config.duration_s = duration_s;
  config.burst_rate_hz = workload.burst_rate_hz;
  config.burst_duration_s = workload.burst_duration_s;
  return config;
}

UserStack::UserStack(EventLoop& loop, const UserStackSpec& spec, Rng& rng)
    : wifi_radio(loop, net::wifi_radio_config(), spec.name + "-wifi"),
      bt_radio(bluetooth_radio(loop, spec)),
      endpoint(loop, spec.node, spec.transport),
      gbooster(loop, spec.gbooster,
               bind_media(endpoint, spec, wifi_radio, bt_radio), spec.devices),
      genuine(64, 48, gles::PresentFn{}),
      api(link_hooked(linker, genuine, gbooster)),
      app(spec.app, *api, spec.app_width, spec.app_height, rng.fork()),
      touch(spec.touch, rng.fork()) {
  gbooster.set_workload_override(spec.workload_pixels);
  endpoint.set_handler(
      [this](net::NodeId src, net::NodeId stream, Bytes message) {
        gbooster.on_message(src, stream, std::move(message));
      });
  app.setup();
}

std::uint64_t UserStack::frames_lost() const {
  return gbooster.stats().frames_dropped + gbooster.stats().frames_shed_void;
}

void AppPacer::start(UserStack& stack, double cpu_frame_s,
                     SimTime min_interval) {
  stack_ = &stack;
  generation_++;
  cpu_frame_s_ = cpu_frame_s;
  min_interval_ = min_interval;
  next_allowed_ = SimTime{};
  waiting_ = false;
  backstop_ = !stack.gbooster.config().enable_local_fallback;
  attempt(generation_);
}

void AppPacer::stop() {
  stack_ = nullptr;
  generation_++;
}

void AppPacer::on_display() {
  if (stack_ != nullptr) wake();
}

void AppPacer::wake() {
  if (!waiting_) return;
  waiting_ = false;
  attempt(generation_);
}

void AppPacer::attempt(std::uint64_t generation) {
  if (generation != generation_ || loop_.now().seconds() >= end_s_) return;
  if (!stack_->gbooster.can_issue_frame()) {
    if (backstop_ && !waiting_) {
      loop_.schedule_after(min_interval_, [this, generation] {
        if (generation == generation_) wake();
      });
    }
    waiting_ = true;
    return;
  }
  loop_.schedule_after(seconds(cpu_frame_s_), [this, generation] {
    if (generation != generation_) return;
    const double now_s = loop_.now().seconds();
    stack_->app.render_frame(now_s, stack_->touch.burst_active(now_s));
    next_allowed_ = std::max(loop_.now(), next_allowed_ + min_interval_);
    loop_.schedule_at(next_allowed_,
                      [this, generation] { attempt(generation); });
  });
}

std::shared_ptr<compress::SharedStoreRegistry> dedup_registry(
    bool shared_dedup, std::shared_ptr<compress::SharedStoreRegistry> given) {
  if (!shared_dedup) return nullptr;
  return given != nullptr ? std::move(given)
                          : std::make_shared<compress::SharedStoreRegistry>();
}

namespace {

net::MediumConfig shared_wifi_config() {
  net::MediumConfig config;
  config.loss_rate = 0.002;
  return config;
}

core::ServiceFleet build_fleet(EventLoop& loop,
                               const core::ServiceRuntimeConfig& service,
                               const std::vector<device::DeviceProfile>& profiles,
                               net::NodeId first_node, int max_sessions) {
  core::ServiceFleetConfig config;
  config.service = service;
  std::vector<core::FleetDeviceConfig> devices;
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    devices.push_back(core::FleetDeviceConfig{
        first_node + static_cast<net::NodeId>(d), profiles[d], max_sessions});
  }
  return core::ServiceFleet(loop, std::move(config), std::move(devices));
}

}  // namespace

SharedWifiFleet::SharedWifiFleet(
    EventLoop& loop, Rng wifi_rng, const core::ServiceRuntimeConfig& service,
    const std::vector<device::DeviceProfile>& profiles, net::NodeId first_node,
    int max_sessions)
    : wifi(loop, shared_wifi_config(), wifi_rng, "wifi"),
      fleet(build_fleet(loop, service, profiles, first_node, max_sessions)) {
  for (std::size_t d = 0; d < fleet.device_count(); ++d) {
    fleet.runtime(d).endpoint().bind(wifi, nullptr);
    if (service.render_width == 0) {
      fleet.runtime(d).set_size_model(fleet_analytic_size_model());
    }
  }
}

std::optional<std::size_t> migrate_session(EventLoop& loop,
                                           core::ServiceFleet& fleet,
                                           UserStack& stack,
                                           const AppPacer& pacer,
                                           net::NodeId node, std::size_t to,
                                           bool cold) {
  const std::optional<std::size_t> from = fleet.session_device(node);
  if (!from.has_value() || to >= fleet.device_count() || to == *from ||
      fleet.session_count(to) >=
          static_cast<std::size_t>(fleet.device_config(to).max_sessions)) {
    return std::nullopt;
  }
  core::MigrationOptions options;
  options.cold_restart = cold;
  stack.gbooster.migrate_service_device(0, fleet.device_info(to), options);
  fleet.register_session(node, to);
  // The source keeps the session through the drain window (its in-flight
  // results are still displaying), then releases it: that closes the
  // shared-store lease, which makes its proof-covered records evictable.
  // Cold mode abandoned everything up front. Skip the release only if the
  // session churned *and* its replacement landed back on the source, whose
  // server state the release would tear down.
  const double release_delay_s = cold ? 0.0 : 0.6;
  const std::size_t source = *from;
  const std::uint64_t generation = pacer.generation();
  loop.schedule_after(seconds(release_delay_s), [&fleet, &pacer, node, source,
                                                 generation] {
    if (pacer.generation() != generation &&
        fleet.session_device(node) == source) {
      return;
    }
    (void)fleet.runtime(source).release_user(node);
  });
  return source;
}

}  // namespace gb::sim
