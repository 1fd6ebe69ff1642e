// Gameplay experience metrics (§VII-B).
//
//   median FPS    — median of per-second frame counts; naturally insensitive
//                   to loading-screen outliers (0 or 60 FPS spikes);
//   FPS stability — fraction of the session's seconds whose frame rate lies
//                   within ±20% of the median;
//   response time — mean issue-to-display latency of a rendering request
//                   (Eq. 5: 1000/FPS locally, plus the offload pipeline time
//                   t_p when remote).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "runtime/sim_clock.h"
#include "runtime/trace.h"

namespace gb::sim {

// Latency distribution of one pipeline stage across the session's displayed
// frames (from the tracer's spans; DESIGN.md §9).
struct StageStats {
  std::uint64_t count = 0;  // displayed frames with at least one span
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct SessionMetrics {
  double median_fps = 0.0;
  double fps_stability = 0.0;      // in [0,1]
  double avg_response_ms = 0.0;
  std::uint64_t frames_displayed = 0;
  double duration_s = 0.0;
  std::vector<int> fps_timeline;   // frames per second-bucket
  // --- stall metrics (fault-recovery studies) ------------------------------
  // Longest wall-clock gap between consecutive displayed frames.
  double max_display_gap_s = 0.0;
  // Total time the display was visibly frozen: the sum, over inter-frame
  // gaps longer than 100 ms, of the excess past that threshold.
  double stall_seconds = 0.0;
  // Tail issue-to-display latencies. p95 is the QoS governor's control
  // target (DESIGN.md §11) and the overload benchmark's headline metric.
  double p95_response_ms = 0.0;
  double p99_response_ms = 0.0;
  // Mean *measured* issue-to-display latency. Unlike avg_response_ms (which
  // the offload session overwrites with the Eq. 5 model), this is always the
  // raw mean of the displayed frames' latencies — the quantity the tracer's
  // per-stage spans must sum to.
  double avg_issue_to_display_ms = 0.0;
  // --- per-stage latency breakdown (tracing enabled only) ------------------
  bool has_stage_breakdown = false;
  std::array<StageStats, runtime::kStageCount> stage_breakdown{};
};

// Fills metrics.stage_breakdown from a session's trace: for every frame with
// a present (or local-render) span, per-stage span durations are summed and
// fed into fixed-bucket histograms. Stage means over displayed offloaded
// frames tile the issue-to-display interval, so
//   sum over stages of mean_ms * (count / frames)  ≈  avg_issue_to_display_ms
// (exact when every displayed frame took the same path).
void fill_stage_breakdown(const runtime::Tracer& tracer,
                          SessionMetrics& metrics);

// Mean and tail issue-to-display latency, tails interpolated between
// ranks (runtime::percentile_sorted) — the multi-user harnesses' rule.
// SessionMetrics' p95/p99 take the floor rank instead.
struct LatencySummary {
  double mean_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

class MetricsCollector {
 public:
  void on_frame_displayed(SimTime when, SimTime response_latency);

  [[nodiscard]] SessionMetrics finalize(SimTime session_duration) const;
  // All zero before the first display.
  [[nodiscard]] LatencySummary latency_summary() const;
  [[nodiscard]] std::uint64_t frames_displayed() const { return frames_; }

 private:
  std::vector<int> per_second_;
  std::vector<double> latencies_ms_;
  double response_ms_sum_ = 0.0;
  std::uint64_t frames_ = 0;
  bool have_last_display_ = false;
  SimTime last_display_;
  double max_gap_s_ = 0.0;
  double stall_s_ = 0.0;
};

}  // namespace gb::sim
