// Golden pins on the user-side frame-dispatch pipeline (DESIGN.md §11).
//
// Three ungoverned sessions — one device on a clean link, three devices
// under Gilbert–Elliott bursts with FEC and multipath, and one device that
// crashes mid-session and comes back while the local GPU covers the gap —
// are reduced to a hash of their outcome: frames displayed, dropped and
// shed, bytes each way, the Eq. 5 t_p sum, and every pipeline stage's mean
// span. A refactor of the dispatch path must leave all three hashes
// unchanged. Each test prints the hashed values, so on a mismatch the moved
// field can be read off the output.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iostream>
#include <string>

#include "apps/workload.h"
#include "device/device_profiles.h"
#include "sim/session.h"

namespace gb::sim {
namespace {

class OutcomeHash {
 public:
  void add(const std::string& name, std::uint64_t value) {
    mix(value);
    trace_ += name + "=" + std::to_string(value) + " ";
  }
  void add(const std::string& name, double value) {
    mix(std::bit_cast<std::uint64_t>(value));
    trace_ += name + "=" + std::to_string(value) + " ";
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] const std::string& trace() const { return trace_; }

 private:
  // FNV-1a over the value's eight bytes.
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::string trace_;
};

OutcomeHash outcome(const SessionResult& r) {
  OutcomeHash h;
  const core::GBoosterStats& g = r.gbooster;
  h.add("displayed", g.frames_displayed);
  h.add("dropped", g.frames_dropped);
  h.add("shed", g.frames_shed_window + g.frames_shed_deadline +
                    g.frames_shed_void + g.frames_shed_service);
  h.add("bytes_sent", g.bytes_sent);
  h.add("bytes_received", g.bytes_received);
  h.add("t_p_ms_sum", g.t_p_ms_sum);
  for (std::size_t s = 0; s < runtime::kStageCount; ++s) {
    h.add(runtime::stage_name(static_cast<runtime::Stage>(s)),
          r.metrics.stage_breakdown[s].mean_ms);
  }
  return h;
}

SessionConfig golden_config(std::size_t devices) {
  SessionConfig config;
  config.workload = apps::g1_gta_san_andreas();
  config.user_device = device::nexus5();
  config.duration_s = 20.0;
  config.seed = 11;
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 6;
  for (std::size_t d = 0; d < devices; ++d) {
    config.service_devices.push_back(device::nvidia_shield());
  }
  config.collect_stage_breakdown = true;
  return config;
}

// Runs the session, prints the hashed values and returns their hash.
std::uint64_t pinned(const SessionConfig& config,
                     SessionResult* out = nullptr) {
  EXPECT_FALSE(config.gbooster.qos.enabled);
  const SessionResult r = run_session(config);
  const OutcomeHash h = outcome(r);
  std::cout << "outcome " << h.trace() << "\n";
  EXPECT_GT(r.gbooster.frames_displayed, 0u);
  if (out != nullptr) *out = r;
  return h.hash();
}

TEST(DispatchGolden, OneDeviceSessionIsPinned) {
  EXPECT_EQ(pinned(golden_config(1)), 0x7025d292593334e2ull);
}

TEST(DispatchGolden, LossyMultipathSessionIsPinned) {
  SessionConfig config = golden_config(3);
  config.fault_burst.enabled = true;
  config.fault_burst.p_enter_burst = 0.005;
  config.fault_burst.p_exit_burst = 0.05;
  config.fault_burst.loss_burst = 0.8;
  config.switcher.policy = core::SwitchPolicy::kMultipath;
  config.transport.fec_group_size = 4;
  config.service.transport.fec_group_size = 4;
  EXPECT_EQ(pinned(config), 0xdf8bcbfdabb64cfdull);
}

// The lone device is down for the middle fifth of the session: the breaker
// trips, the local GPU renders, and the device is reintegrated on revival.
TEST(DispatchGolden, CrashRecoverWithFallbackIsPinned) {
  SessionConfig config = golden_config(1);
  config.service_outages.push_back({0, 8.0, 12.0});
  SessionResult r;
  EXPECT_EQ(pinned(config, &r), 0x3692ab244da0b6e3ull);
  EXPECT_GT(r.gbooster.frames_rendered_locally, 0u);
  EXPECT_GT(r.gbooster.device_reintegrations, 0u);
}

}  // namespace
}  // namespace gb::sim
