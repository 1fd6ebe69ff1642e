#include "core/qos_governor.h"

#include <algorithm>

#include "runtime/percentile.h"

namespace gb::core {

QosGovernor::QosGovernor(QosGovernorConfig config) : config_(config) {}

void QosGovernor::on_frame_displayed(double latency_ms) {
  if (!config_.enabled) return;  // no control windows to fill
  window_latencies_.push_back(latency_ms);
}

void QosGovernor::on_frame_bytes(std::size_t bytes, int quality) {
  if (!config_.enabled || quality <= 0) return;
  // Normalize to what this frame would have cost at base quality (JPEG size
  // scales roughly linearly with the quality knob over the ladder's range),
  // so the estimate is comparable across level changes.
  const double at_base = static_cast<double>(bytes) *
                         static_cast<double>(config_.base_quality) /
                         static_cast<double>(quality);
  base_frame_bytes_ = base_frame_bytes_ == 0.0
                          ? at_base
                          : 0.9 * base_frame_bytes_ + 0.1 * at_base;
}

double QosGovernor::frame_cost_estimate(int level) const {
  return base_frame_bytes_ *
         static_cast<double>(quality_for_level(level)) /
         static_cast<double>(config_.base_quality);
}

void QosGovernor::on_capacity_forecast(double bytes_per_sec) {
  if (config_.target_fps <= 0.0 || base_frame_bytes_ == 0.0 ||
      bytes_per_sec <= 0.0) {
    proactive_level_ = 0;
    return;
  }
  const double budget_per_frame =
      config_.capacity_headroom * bytes_per_sec / config_.target_fps;
  // Lowest rung whose estimated frame fits the per-frame byte budget; if not
  // even the deepest rung fits, the ladder bottoms out there and the AIMD
  // loop (backlog will build) plus deadline shedding absorb the rest.
  int level = 0;
  while (level < config_.max_level &&
         frame_cost_estimate(level) > budget_per_frame) {
    level++;
  }
  proactive_level_ = level;
  // Forecast recovery: capacity-attributed AIMD raises unwind here, on the
  // forecast's clock, not the AIMD dwell clock. Without this the effective
  // level stays pinned at max(AIMD, proactive) long after the capacity dip
  // that caused it cleared, because the reactive side still owes
  // recover_windows calm windows plus min_dwell before its first drop.
  if (capacity_raised_ > 0 && proactive_level_ < level_) {
    const int unwind = std::min(capacity_raised_, level_ - proactive_level_);
    level_ -= unwind;
    capacity_raised_ -= unwind;
    calm_windows_ = 0;
    stats_.level_drops++;
    stats_.proactive_recoveries++;
  }
}

bool QosGovernor::evaluate(SimTime now, double backlog_ms,
                           std::size_t pending_depth) {
  stats_.windows_evaluated++;
  std::sort(window_latencies_.begin(), window_latencies_.end());
  const bool has_samples = !window_latencies_.empty();
  last_p95_ms_ = runtime::percentile_sorted(window_latencies_, 0.95);
  window_latencies_.clear();

  // Overload is any of: latency past target, transport queue deep, pipeline
  // deep, or a full window with frames in flight and *nothing* displayed —
  // the stalled case where there is no latency sample to read.
  const bool overloaded =
      (has_samples && last_p95_ms_ > config_.target_p95_ms) ||
      backlog_ms > config_.backlog_overload_ms ||
      pending_depth >= config_.depth_overload ||
      (!has_samples && pending_depth > 0);
  // Calm requires every signal well inside its threshold (hysteresis band).
  const bool calm =
      has_samples &&
      last_p95_ms_ < config_.low_fraction * config_.target_p95_ms &&
      backlog_ms < 0.5 * config_.backlog_overload_ms &&
      pending_depth < config_.depth_overload;

  const int before = level_;
  if (overloaded) {
    stats_.windows_overloaded++;
    calm_windows_ = 0;
    if (level_ < config_.max_level && now - last_change_ >= config_.min_dwell) {
      // Attribute the raise: if the proactive ladder was strictly above the
      // reactive level going in, the forecast already predicted (at least)
      // this much degradation — the raise is capacity-led and may unwind
      // straight from on_capacity_forecast when the forecast recovers.
      const bool capacity_led = proactive_level_ > level_;
      level_ = std::min(config_.max_level, level_ + config_.degrade_step);
      if (capacity_led) capacity_raised_ += level_ - before;
    }
  } else if (calm) {
    calm_windows_++;
    if (level_ > 0 && calm_windows_ >= config_.recover_windows &&
        now - last_change_ >= config_.min_dwell) {
      level_ = std::max(0, level_ - config_.recover_step);
      calm_windows_ = 0;
      // A calm-path drop retires capacity attribution first: the ledger can
      // never exceed the level it is attributed against.
      capacity_raised_ = std::min(capacity_raised_, level_);
    }
  } else {
    // Neither overloaded nor inside the calm band: hold the level and the
    // recovery countdown does not advance.
    calm_windows_ = 0;
  }
  if (level_ != before) {
    last_change_ = now;
    if (level_ > before) {
      stats_.level_raises++;
    } else {
      stats_.level_drops++;
    }
    stats_.max_level_reached = std::max(stats_.max_level_reached, level_);
  }
  if (proactive_level_ > level_) stats_.proactive_limit_windows++;
  stats_.max_level_reached =
      std::max(stats_.max_level_reached, effective_level());
  return level_ != before;
}

int QosGovernor::quality_for_level(int level) const noexcept {
  return std::max(config_.min_quality,
                  config_.base_quality - level * config_.quality_step);
}

int QosGovernor::quality() const noexcept {
  if (!config_.enabled) return 0;
  return quality_for_level(effective_level());
}

int QosGovernor::skip_threshold() const noexcept {
  if (!config_.enabled) return -1;
  return std::min(
      config_.max_skip_threshold,
      config_.base_skip_threshold + effective_level() * config_.skip_step);
}

SimTime QosGovernor::shed_deadline() const noexcept {
  if (config_.shed_deadline > SimTime{}) return config_.shed_deadline;
  return SimTime::from_ms(2.0 * config_.target_p95_ms);
}

bool QosGovernor::stale(SimTime waited) const noexcept {
  return config_.enabled && waited > shed_deadline();
}

int QosGovernor::depth_cap(int configured_max) const noexcept {
  if (!config_.enabled) return configured_max;
  return std::max(std::min(config_.min_depth, configured_max),
                  configured_max - effective_level() * config_.depth_step);
}

}  // namespace gb::core
