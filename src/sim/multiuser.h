// Multi-user sessions (§VIII "Towards Multiple Users").
//
// Several user devices offload to the *same* service device simultaneously.
// The paper's prototype queues their rendering requests FCFS and notes the
// problem: a fast-paced shooter and a patient puzzle game get equal
// treatment, so the shooter's response time suffers. This harness runs the
// shared-service scenario under both disciplines — FCFS (the prototype) and
// the priority scheduling §VIII proposes — and reports per-user metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "compress/shared_store.h"
#include "core/qos_governor.h"
#include "device/device_profiles.h"
#include "device/gpu_model.h"
#include "sim/metrics.h"

namespace gb::sim {

struct MultiUserParticipant {
  apps::WorkloadSpec workload;
  device::DeviceProfile phone;
  // §VIII urgency: lower = more time-critical (only matters under
  // kPriority scheduling at the service device).
  int priority = 0;
  // Shared-store identity (DESIGN.md §14): users running the same app_id
  // dedup each other's static record uploads at the service device.
  std::uint64_t app_id = 0;
  // Session-start stagger: this user's join handshake (and held frames) wait
  // this long, so later users join against a store earlier ones populated.
  double join_delay_s = 0.0;
};

// Every user keeps at most two frames in flight (kMultiUserMaxPending in
// sim/testbed.h): shallow pipelines make per-request queueing visible in the
// latency numbers.
struct MultiUserConfig {
  std::vector<MultiUserParticipant> users;
  device::DeviceProfile service_device;  // its gpu.scheduling picks FCFS/prio
  double duration_s = 120.0;
  std::uint64_t seed = 1;
  int render_width = 96;
  int render_height = 72;
  int content_sample_every = 8;
  // Service-side per-user admission cap (DESIGN.md §11); 0 disables.
  int admission_queue_cap = 0;
  // User-side QoS governor applied to every participant (disabled by
  // default, like single-user sessions).
  core::QosGovernorConfig qos;
  // Cross-session shared-store dedup (DESIGN.md §14). When enabled, every
  // user joins with its app_id and the service deduplicates static record
  // payloads across users in `shared_store` (a fresh registry is created
  // when null; pass one in to carry residency across harness calls).
  bool shared_dedup = false;
  std::shared_ptr<compress::SharedStoreRegistry> shared_store;
};

struct MultiUserResult {
  // Indexed like config.users.
  std::vector<SessionMetrics> per_user;
  // Mean and tail issue->display latency per user (the §VIII response-time
  // metric — measured end to end, queueing included). The tail is where
  // FCFS hurts: the urgent user occasionally queues behind a heavy request.
  std::vector<double> mean_latency_ms;
  std::vector<double> p95_latency_ms;
  // Requests of each user shed by service-side admission control
  // (DESIGN.md §11); all-zero when admission_queue_cap is 0.
  std::vector<std::uint64_t> service_sheds_per_user;
  // Frames each user's own governor shed before dispatch (window/deadline/
  // void causes combined); all-zero when the governor is disabled.
  std::vector<std::uint64_t> governor_sheds_per_user;
  double service_gpu_busy_fraction = 0.0;
  // Uplink payload bytes and shared-reference hits per user (DESIGN.md §14):
  // with shared_dedup on, later same-app joiners should send fewer bytes and
  // show nonzero shared hits — the sub-linear-uplink check.
  std::vector<std::uint64_t> bytes_sent_per_user;
  std::vector<std::uint64_t> shared_hits_per_user;
  // Final shared-store occupancy for the app ids in play (0 when disabled).
  std::uint64_t shared_store_resident_bytes = 0;
};

MultiUserResult run_multiuser_session(const MultiUserConfig& config);

}  // namespace gb::sim
