// Closed-loop overload control (DESIGN.md §11): an AIMD degradation
// controller that watches the offload pipeline's health — issue→display
// latency p95, pending-pipeline depth, transport backlog — over fixed sample
// windows and maps an integer degradation level onto codec knobs
// (TurboConfig quality / skip_threshold) and a frame-staleness shedding
// deadline.
//
// Control law: additive-ish increase / multiplicative-ish decrease with
// hysteresis and dwell. Overload in a window raises the level by
// `degrade_step` (react fast); recovery requires `recover_windows`
// consecutive calm windows *below* the low watermark before stepping down by
// one (recover slow, and never chatter across the single target threshold).
// A dwell time lower-bounds how long any level persists so the codec quality
// does not oscillate visibly.
//
// Everything is driven by the deterministic sim clock and plain arithmetic:
// decisions are bit-identical across worker-thread counts and runs.
//
// Disabled (`enabled == false`), the governor is the null policy every
// session without overload control runs: the window is the configured
// maximum, nothing is shed for staleness or to admit a newer frame, the
// codec knobs stay at the service defaults (quality 0, skip threshold -1),
// and the sample feeds do nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/sim_clock.h"

namespace gb::core {

struct QosGovernorConfig {
  bool enabled = false;
  // Control window: latency samples are aggregated and one decision is made
  // per window.
  SimTime window = ms(500);
  // Latency target: the p95 issue→display latency the controller defends.
  double target_p95_ms = 100.0;
  // Hysteresis: recovery requires the p95 below low_fraction * target (not
  // merely below target), so the controller never oscillates around one
  // threshold.
  double low_fraction = 0.6;
  // Minimum time between level changes in either direction.
  SimTime min_dwell = seconds(1.0);
  // Consecutive calm windows required before stepping the level down.
  int recover_windows = 3;
  int max_level = 4;
  int degrade_step = 2;  // levels gained per overloaded window (fast down)
  int recover_step = 1;  // levels shed per recovery decision (slow up)
  // Auxiliary overload signals, each sufficient on its own: transport
  // backlog (queued airtime ahead of new traffic) and pending-pipeline
  // depth (frames in flight at window close).
  double backlog_overload_ms = 30.0;
  std::size_t depth_overload = 5;
  // Degradation ladder: level L encodes at
  //   quality        = max(min_quality, base_quality - L * quality_step)
  //   skip_threshold = min(max_skip_threshold, base + L * skip_step)
  int base_quality = 75;
  int min_quality = 25;
  int quality_step = 12;
  int base_skip_threshold = 2;
  int skip_step = 2;
  int max_skip_threshold = 10;
  // Deadline shedding: an undispatched frame older than this at dispatch
  // time is shed (the pipeline is behind; newer frames carry fresher input).
  // Zero derives 2 * target_p95 from the latency target.
  SimTime shed_deadline;
  // Proactive bitrate ladder (DESIGN.md §13): with a capacity forecast wired
  // in (the kMultipath switcher's predicted aggregate deliverable rate), the
  // governor also computes the lowest level whose estimated per-frame bytes
  // fit inside `capacity_headroom` of the forecast at `target_fps`, and
  // operates at the stricter (higher) of that and the AIMD level — shrinking
  // frames *before* the queue builds instead of after the p95 blows through
  // target. Zero target_fps disables the ladder (AIMD-only, the pre-§13
  // behaviour).
  double target_fps = 0.0;
  double capacity_headroom = 0.85;
  // Pending-window adaptation: level L caps the in-flight window at
  //   max(min_depth, configured_max - L * depth_step)
  // so a congested transport is not fed a full window of frames that can
  // only queue behind the repair traffic (their latency would be charged to
  // the display tail). min_depth keeps the pipeline pipelined: shrinking too
  // far starves the display stream during long loss bursts (nothing in
  // flight to complete when the burst lifts).
  int depth_step = 1;
  int min_depth = 4;
};

struct QosGovernorStats {
  std::uint64_t windows_evaluated = 0;
  std::uint64_t windows_overloaded = 0;
  std::uint64_t level_raises = 0;
  std::uint64_t level_drops = 0;
  int max_level_reached = 0;
  // Windows in which the proactive capacity ladder, not the reactive AIMD
  // loop, set the effective level (the forecast led the congestion).
  std::uint64_t proactive_limit_windows = 0;
  // Capacity-forecast recoveries that unwound capacity-attributed AIMD
  // raises immediately, bypassing the dwell/calm-window clock.
  std::uint64_t proactive_recoveries = 0;
};

class QosGovernor {
 public:
  explicit QosGovernor(QosGovernorConfig config);

  // Feeds one displayed frame's issue→display latency into the current
  // window.
  void on_frame_displayed(double latency_ms);

  // Feeds one encoded frame's wire size and the quality it was encoded at;
  // maintains the EWMA per-frame byte estimate (normalized to base_quality)
  // the bitrate ladder prices its rungs with.
  void on_frame_bytes(std::size_t bytes, int quality);

  // Feeds the latest predicted aggregate deliverable capacity (bytes/sec)
  // and recomputes the proactive level. No-op while target_fps is 0, the
  // byte estimate has no samples yet, or the forecast is non-positive.
  void on_capacity_forecast(double bytes_per_sec);

  // Estimated wire bytes of one frame encoded at degradation level `level`.
  [[nodiscard]] double frame_cost_estimate(int level) const;

  // Closes the current sample window and runs one control decision against
  // the auxiliary signals sampled now. Returns true when the degradation
  // level changed.
  bool evaluate(SimTime now, double backlog_ms, std::size_t pending_depth);

  // The reactive AIMD level alone; the knobs below apply effective_level().
  [[nodiscard]] int level() const noexcept { return level_; }
  // The stricter of the AIMD level and the proactive capacity-ladder level.
  [[nodiscard]] int effective_level() const noexcept {
    return level_ > proactive_level_ ? level_ : proactive_level_;
  }
  [[nodiscard]] int proactive_level() const noexcept {
    return proactive_level_;
  }
  // Encoder overrides for the next dispatched frame; 0 and -1 (the service
  // defaults) under the null policy.
  [[nodiscard]] int quality() const noexcept;
  [[nodiscard]] int skip_threshold() const noexcept;
  [[nodiscard]] SimTime shed_deadline() const noexcept;
  // Whether an undispatched frame that has waited `waited` since issue is
  // past the shed deadline (never under the null policy).
  [[nodiscard]] bool stale(SimTime waited) const noexcept;
  // Whether a full window sheds its oldest undispatched frame to admit a
  // newer one (keep-latest; never under the null policy).
  [[nodiscard]] bool keep_latest() const noexcept { return config_.enabled; }
  // The pending-window cap at the current degradation level.
  [[nodiscard]] int depth_cap(int configured_max) const noexcept;
  // The p95 of the most recently closed window (0 when it had no samples).
  [[nodiscard]] double last_window_p95_ms() const noexcept {
    return last_p95_ms_;
  }
  [[nodiscard]] const QosGovernorStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const QosGovernorConfig& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] int quality_for_level(int level) const noexcept;

  QosGovernorConfig config_;
  int level_ = 0;
  int proactive_level_ = 0;
  // AIMD raises taken while the proactive ladder was strictly leading the
  // reactive level — overload the capacity forecast itself predicted. When
  // the forecast recovers, these unwind immediately in on_capacity_forecast
  // (no dwell, no calm windows): holding quality degraded through the AIMD
  // hysteresis clock after the *cause* measurably cleared is the bug this
  // attribution exists to prevent. Latency-led raises (proactive not
  // leading at raise time) still recover only through the calm path.
  int capacity_raised_ = 0;
  // EWMA of per-frame wire bytes normalized to base_quality (0 = no samples).
  double base_frame_bytes_ = 0.0;
  int calm_windows_ = 0;
  SimTime last_change_;
  double last_p95_ms_ = 0.0;
  std::vector<double> window_latencies_;
  QosGovernorStats stats_;
};

}  // namespace gb::core
