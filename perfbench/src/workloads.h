// The benchmark's three workloads, as the configs the simulator receives.
//
// Everything the program sees is generated here from the benchmark seed; the
// same seed always yields the same configs. The sim-time length of one timed
// repeat is fixed per workload (not scaled to host speed), so the modelled
// paper metrics of a run do not depend on how fast the host is.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "apps/workload.h"
#include "sim/session.h"
#include "sim/soak.h"

namespace perfbench {

enum class Workload { kOffloadPixels, kFleetChurn, kMultideviceLossy };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);
// Session workloads run through sim::run_session, fleet_churn through
// sim::run_soak.
[[nodiscard]] bool is_session(Workload workload);

// Seeds handed to the program, derived from the benchmark seed.
struct Seeds {
  std::uint64_t sim = 0;
  std::uint64_t fault = 0;
};
[[nodiscard]] Seeds derive_seeds(std::uint64_t seed);

// Sim seconds of one timed repeat and of one set-up probe.
[[nodiscard]] double repeat_sim_seconds(Workload workload);
[[nodiscard]] double setup_sim_seconds(Workload workload);

// Session workloads only.
[[nodiscard]] gb::sim::SessionConfig session_config(Workload workload,
                                                    std::uint64_t seed,
                                                    double duration_s);
// fleet_churn only: the BM_SoakDrift plan, analytic mode.
[[nodiscard]] gb::sim::SoakPlan soak_plan(std::uint64_t seed,
                                          double duration_s);

}  // namespace perfbench
