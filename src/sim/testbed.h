// Simulation testbed (DESIGN.md §16, "Simulation testbed"): the pieces every
// sim harness assembles the same way.
//
//   - UserStack: one user device's hooked GBooster stack. run_session,
//     run_multiuser_session, run_fleet_scenario and run_soak all build their
//     users through it.
//   - AppPacer: the fixed-cadence app loop of the three multi-user harnesses
//     (run_session keeps its own AppDriver, whose scene changes and catch-up
//     after a blocked swap the paper's figures depend on).
//   - SharedWifiFleet: the multi-user harnesses' service side, one lossy WiFi
//     medium and a core::ServiceFleet on it.
//   - migrate_session: the one live/cold migration step, shared by the
//     fleet harness's scripted migrations and the soak's balancer and chaos
//     migrations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/game_app.h"
#include "apps/touch.h"
#include "apps/workload.h"
#include "common/rng.h"
#include "compress/shared_store.h"
#include "core/gbooster.h"
#include "core/service_fleet.h"
#include "gles/direct_backend.h"
#include "hooking/dynamic_linker.h"
#include "net/medium.h"
#include "net/radio.h"
#include "net/reliable.h"
#include "runtime/event_loop.h"

namespace gb::sim {

// In-flight budget of every multi-user harness's users. Shallow pipelines
// make per-request queueing visible in the latency numbers (deep pipelines
// hide scheduler effects behind self-queueing).
inline constexpr int kMultiUserMaxPending = 2;

// What one user device is made of; the caller picks every part.
struct UserStackSpec {
  net::NodeId node = 0;
  // Radio names are "<name>-wifi" and "<name>-bt".
  std::string name;
  net::Medium* wifi = nullptr;
  // Null builds a WiFi-only device.
  net::Medium* bt = nullptr;
  net::ReliableConfig transport;
  core::GBoosterConfig gbooster;
  std::vector<core::ServiceDeviceInfo> devices;
  // The runtime's workload override: Eq. 4's r for each frame.
  std::function<double()> workload_pixels;
  apps::WorkloadSpec app;
  int app_width = 600;
  int app_height = 480;
  apps::TouchScriptConfig touch;
};

// The touch script of `workload`'s burst process over `duration_s`, at the
// default touch rates. run_session also applies the workload's touch rates;
// the multi-user harnesses do not.
[[nodiscard]] apps::TouchScriptConfig touch_script_config(
    const apps::WorkloadSpec& workload, double duration_s);

// One user device's hooked stack, built in dependency order: the radios, the
// reliable endpoint bound to the media through them, the GBooster runtime
// with its message handler and workload override, the linker with the
// genuine DirectBackend and the hooked GLES API, the app (set up), and its
// touch script. The app and then the touch script fork `rng`. Members die in
// reverse order: the app before the API it draws through, the runtime before
// the endpoint it sends on, the endpoint before its radios.
struct UserStack {
  UserStack(EventLoop& loop, const UserStackSpec& spec, Rng& rng);
  UserStack(const UserStack&) = delete;
  UserStack& operator=(const UserStack&) = delete;

  // What the viewer never saw: presenter gap-timeout reclaims plus frames
  // the governor shed because no healthy device existed (a dark window).
  [[nodiscard]] std::uint64_t frames_lost() const;

  net::RadioInterface wifi_radio;
  std::optional<net::RadioInterface> bt_radio;
  net::ReliableEndpoint endpoint;
  core::GBoosterRuntime gbooster;
  hooking::DynamicLinker linker;
  gles::DirectBackend genuine;
  std::unique_ptr<gles::GlesApi> api;
  apps::GameApp app;
  apps::TouchScript touch;
};

// Paces one user's app on a fixed cadence: a frame costs the render thread
// `cpu_frame_s`, the next attempt comes `min_interval` after the previous
// one was due (or at once when late), and a frame the pipeline has no room
// for waits for the next display. When the stack runs with local fallback
// off, a dark slot can strand every pending frame so that no display ever
// comes; the pacer then also retries `min_interval` after blocking. The
// pacer must outlive the loop's run and stay at one address (the loop's
// closures point at it); stop() turns every closure it left in the loop
// into a no-op, so the stack may be destroyed right after.
class AppPacer {
 public:
  AppPacer(EventLoop& loop, double end_s) : loop_(loop), end_s_(end_s) {}
  AppPacer(const AppPacer&) = delete;
  AppPacer& operator=(const AppPacer&) = delete;

  void start(UserStack& stack, double cpu_frame_s, SimTime min_interval);
  // Wakes an app that blocked on a full pipeline; call on every display.
  void on_display();
  void stop();

  // Bumped by start() and stop(): identifies one session of this pacer.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  void attempt(std::uint64_t generation);
  void wake();

  EventLoop& loop_;
  double end_s_;
  UserStack* stack_ = nullptr;
  std::uint64_t generation_ = 0;
  double cpu_frame_s_ = 0.0;
  SimTime min_interval_;
  SimTime next_allowed_;
  bool waiting_ = false;
  bool backstop_ = false;
};

// The shared-store registry of a dedup run: `given` when set, else a fresh
// one; null when dedup is off.
[[nodiscard]] std::shared_ptr<compress::SharedStoreRegistry> dedup_registry(
    bool shared_dedup, std::shared_ptr<compress::SharedStoreRegistry> given);

// The service side of the multi-user harnesses: one WiFi medium (0.2% loss,
// drawing on `wifi_rng`) and a ServiceFleet of `profiles` on node ids first_node +
// index, each bound to the medium without a radio model. A service
// render_width of 0 selects the analytic result-size model
// (fleet_analytic_size_model) on every device.
struct SharedWifiFleet {
  SharedWifiFleet(EventLoop& loop, Rng wifi_rng,
                  const core::ServiceRuntimeConfig& service,
                  const std::vector<device::DeviceProfile>& profiles,
                  net::NodeId first_node, int max_sessions);

  net::Medium wifi;
  core::ServiceFleet fleet;
};

// Moves `node`'s session from its fleet device to device `to`: live (GL-state
// snapshot and mirror transfer, the source drains for 0.5 s) or cold (the
// slot goes dark for 0.25 s, then reconnects from scratch). Returns the
// source device, or nullopt with nothing done when the node has no session,
// `to` is its device or `to` is at its session cap. The source releases the
// session when the drain closes (at once when cold), unless `pacer` has
// since started a new session that was placed back on the source.
std::optional<std::size_t> migrate_session(EventLoop& loop,
                                           core::ServiceFleet& fleet,
                                           UserStack& stack,
                                           const AppPacer& pacer,
                                           net::NodeId node, std::size_t to,
                                           bool cold);

}  // namespace gb::sim
