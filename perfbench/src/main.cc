// perfbench: runs one workload of the repository benchmark in this process
// and prints its raw measurements as one JSON object on the last line of
// standard output. perfbench/run.py builds this program, runs it, checks its
// outputs and turns the raw measurements into the published metrics.
//
//   perfbench --workload offload_pixels --seed 1 --seconds 20 --trace 0
//
// --trace 0: set-up probes, then timed repeats of the workload's harness
//            call (sim::run_session or sim::run_soak) for --seconds.
// --trace 1: the harness call with and without the pipeline tracer,
//            alternating, then the per-layer probes (layers.h) at the frame
//            rate that call displayed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <string>
#include <vector>

#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupProbes = 15;
constexpr int kMinRepeats = 3;
constexpr int kTracePairs = 2;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of every thread of this process.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One harness call: host cost plus the modelled outcome. `signature` holds
// every deterministic output in full precision; equal seeds must reproduce it
// exactly.
struct Run {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double frames_displayed = 0.0;
  double frames_failed = 0.0;
  double fps_per_user = 0.0;  // displayed frames / (users x sim seconds)
  double violations = 0.0;
  std::string signature;
  LayerValues sim;  // per-layer counts read from the run (trace mode)
};

// The sim-time stage spans of a traced session (mean, and p99 for the three
// legs that queue); zero where there is no breakdown, as in the soak.
void add_stage_spans(const gb::sim::SessionMetrics* metrics,
                     LayerValues& out) {
  using gb::runtime::Stage;
  for (const Stage stage :
       {Stage::kSerialize, Stage::kUplink, Stage::kRemoteExec,
        Stage::kTurboEncode, Stage::kDownlink, Stage::kDecode,
        Stage::kPresent}) {
    const bool has = metrics != nullptr && metrics->has_stage_breakdown;
    const gb::sim::StageStats& st =
        has ? metrics->stage_breakdown[static_cast<std::size_t>(stage)]
            : gb::sim::StageStats{};
    const std::string name = gb::runtime::stage_name(stage);
    out["stage." + name + "_ms"] = st.mean_ms;
    if (stage == Stage::kUplink || stage == Stage::kRemoteExec ||
        stage == Stage::kDownlink) {
      out["stage." + name + "_p99_ms"] = st.p99_ms;
    }
  }
}

Run run_session_once(Workload workload, std::uint64_t seed, double duration_s,
                     bool traced) {
  gb::sim::SessionConfig config = session_config(workload, seed, duration_s);
  config.collect_stage_breakdown = traced;
  Run run;
  const double wall0 = wall_now();
  const double cpu0 = cpu_now();
  const gb::sim::SessionResult result = gb::sim::run_session(config);
  run.cpu_s = cpu_now() - cpu0;
  run.wall_s = wall_now() - wall0;

  const gb::core::GBoosterStats& g = result.gbooster;
  run.frames_displayed = static_cast<double>(result.metrics.frames_displayed);
  run.frames_failed = static_cast<double>(
      g.frames_dropped + g.frames_shed_window + g.frames_shed_deadline +
      g.frames_shed_void + result.requests_shed_admission +
      result.requests_lost_to_faults);
  run.fps_per_user = run.frames_displayed / duration_s;

  const double frames = std::max(run.frames_displayed, 1.0);
  run.sim["sim.median_fps"] = result.metrics.median_fps;
  run.sim["sim.mean_response_ms"] = result.metrics.avg_issue_to_display_ms;
  run.sim["sim.p95_response_ms"] = result.metrics.p95_response_ms;
  run.sim["sim.wire_kb_per_frame"] =
      static_cast<double>(g.bytes_sent + g.bytes_received) / 1000.0 / frames;
  run.sim["sim.energy_j_per_frame"] = result.energy.total() / frames;
  run.sim["gbooster.pending_depth_mean"] =
      g.pending_depth_samples == 0
          ? 0.0
          : static_cast<double>(g.pending_depth_sum) /
                static_cast<double>(g.pending_depth_samples);
  run.sim["transport.retransmits"] =
      static_cast<double>(result.transport.chunks_retransmitted +
                          result.service_transport.chunks_retransmitted);
  run.sim["transport.fec_recovered"] =
      static_cast<double>(result.transport.fec_recovered_chunks +
                          result.service_transport.fec_recovered_chunks);
  run.sim["soak.violations"] = 0.0;
  add_stage_spans(&result.metrics, run.sim);

  run.signature = num(result.metrics.median_fps) + " " +
                  num(result.metrics.fps_stability) + " " +
                  num(result.metrics.avg_issue_to_display_ms) + " " +
                  num(result.metrics.p95_response_ms) + " " +
                  num(result.metrics.p99_response_ms) + " " +
                  num(run.frames_displayed) + " " + num(run.frames_failed) +
                  " " + num(static_cast<double>(g.bytes_sent)) + " " +
                  num(static_cast<double>(g.bytes_received)) + " " +
                  num(result.energy.total()) + " " +
                  num(run.sim["transport.retransmits"]) + " " +
                  num(run.sim["transport.fec_recovered"]);
  return run;
}

Run run_soak_once(std::uint64_t seed, double duration_s, bool traced) {
  gb::sim::SoakPlan plan = soak_plan(seed, duration_s);
  plan.attach_tracer = traced;
  Run run;
  const double wall0 = wall_now();
  const double cpu0 = cpu_now();
  const gb::sim::SoakReport report = gb::sim::run_soak(plan);
  run.cpu_s = cpu_now() - cpu0;
  run.wall_s = wall_now() - wall0;

  run.frames_displayed = static_cast<double>(report.frames_displayed);
  run.frames_failed = static_cast<double>(report.frames_lost);
  run.fps_per_user =
      run.frames_displayed /
      (static_cast<double>(plan.churn.slots) * duration_s);
  run.violations = static_cast<double>(report.violations);
  if (report.violations != 0) {
    std::fprintf(stderr, "soak invariant violations:\n%s\n",
                 report.violation_dump.c_str());
  }
  // run_soak reports none of the session-only figures.
  for (const char* name :
       {"sim.median_fps", "sim.wire_kb_per_frame", "sim.energy_j_per_frame",
        "gbooster.pending_depth_mean", "transport.retransmits",
        "transport.fec_recovered"}) {
    run.sim[name] = 0.0;
  }
  run.sim["sim.mean_response_ms"] = report.mean_latency_ms;
  run.sim["sim.p95_response_ms"] = report.p95_latency_ms;
  run.sim["soak.violations"] = run.violations;
  add_stage_spans(nullptr, run.sim);
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, report.fingerprint);
  run.signature = fp;
  return run;
}

Run run_once(Workload workload, std::uint64_t seed, double duration_s,
             bool traced) {
  return is_session(workload)
             ? run_session_once(workload, seed, duration_s, traced)
             : run_soak_once(seed, duration_s, traced);
}

std::string run_json(const Run& run) {
  return "{\"wall_s\": " + num(run.wall_s) + ", \"cpu_s\": " + num(run.cpu_s) +
         ", \"frames_displayed\": " + num(run.frames_displayed) +
         ", \"frames_failed\": " + num(run.frames_failed) +
         ", \"fps_per_user\": " + num(run.fps_per_user) +
         ", \"violations\": " + num(run.violations) + ", \"signature\": \"" +
         run.signature + "\"}";
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ", ";
    out += item;
  }
  return out + "]";
}

std::string runs_json(const std::vector<Run>& runs) {
  std::vector<std::string> items;
  for (const Run& run : runs) items.push_back(run_json(run));
  return json_array(items);
}

// Best (lowest) of identical calls: host contention only ever slows a call.
double best_wall_s(const std::vector<Run>& runs) {
  double best = runs.front().wall_s;
  for (const Run& run : runs) best = std::min(best, run.wall_s);
  return best;
}

double best_cpu_ms_per_frame(const std::vector<Run>& runs) {
  double best = 0.0;
  for (const Run& run : runs) {
    const double v = 1000.0 * run.cpu_s / std::max(run.frames_displayed, 1.0);
    best = best == 0.0 ? v : std::min(best, v);
  }
  return best;
}

std::string values_json(const LayerValues& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + num(value);
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "offload_pixels|fleet_churn|multidevice_lossy --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = parse_workload(value);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value) != 0;
    } else {
      return usage();
    }
  }
  if (!workload.has_value() || argc % 2 == 0) return usage();

  const double duration_s = repeat_sim_seconds(*workload);
  std::string out = "{\"workload\": \"" +
                    std::string(workload_name(*workload)) +
                    "\", \"seed\": " + std::to_string(seed) +
                    ", \"sim_seconds\": " + num(duration_s);

  if (!trace) {
    const double setup_sim_s = setup_sim_seconds(*workload);
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupProbes; ++i) {
      setup_s.push_back(run_once(*workload, seed, setup_sim_s, false).wall_s);
    }
    // Whole repeats while the next one still fits in --seconds of timed
    // work; the sim length of a repeat is fixed, so only the repeat count
    // depends on host speed.
    std::vector<Run> runs;
    double elapsed = 0.0;
    while (static_cast<int>(runs.size()) < kMinRepeats ||
           elapsed + elapsed / static_cast<double>(runs.size()) <= seconds) {
      runs.push_back(run_once(*workload, seed, duration_s, false));
      elapsed += runs.back().wall_s;
    }
    std::vector<std::string> setup_items;
    for (const double s : setup_s) setup_items.push_back(num(s));
    out += ", \"setup_s\": " + json_array(setup_items) +
           ", \"repeats\": " + runs_json(runs);
    out += ", \"peak_rss_mb\": " + num(peak_rss_mb()) + "}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  // Untraced and traced harness calls, alternating; the traced calls give
  // the sim-time stage spans, the untraced ones the frame rate the probes
  // issue at and the host cost the layer sum is compared against.
  std::vector<Run> untraced;
  std::vector<Run> traced;
  for (int i = 0; i < kTracePairs; ++i) {
    untraced.push_back(run_once(*workload, seed, duration_s, false));
    traced.push_back(run_once(*workload, seed, duration_s, true));
  }
  LayerReport report =
      run_layer_probes(*workload, seed, untraced.front().fps_per_user);
  LayerValues& layers = report.values;
  layers["tracing_overhead_pct"] =
      100.0 * (best_wall_s(traced) / best_wall_s(untraced) - 1.0);
  layers["core.unattributed_us_per_frame"] =
      1000.0 * best_cpu_ms_per_frame(untraced) - report.layer_sum_us_per_frame;
  for (const auto& [name, value] : traced.front().sim) layers[name] = value;

  const LayerChecks& checks = report.checks;
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  // Lossless frames read as +inf dB, which JSON cannot hold.
  const std::string min_psnr =
      checks.min_psnr_db.has_value()
          ? num(std::min(*checks.min_psnr_db, 999.0))
          : "null";
  out += ", \"repeats\": " + runs_json(untraced) +
         ", \"traced\": " + runs_json(traced) +
         ", \"checks\": {\"pixels_match\": " + flag(checks.pixels_match) +
         ", \"cache_roundtrip\": " + flag(checks.cache_roundtrip) +
         ", \"codec_quality\": " + flag(checks.codec_quality) +
         ", \"decode_failed\": " + flag(checks.decode_failed) +
         ", \"min_psnr_db\": " + min_psnr +
         "}, \"layers\": " + values_json(layers) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
