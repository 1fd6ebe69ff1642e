#include "sim/metrics.h"

#include <algorithm>
#include <map>
#include <set>

#include "runtime/metrics_registry.h"
#include "runtime/percentile.h"

namespace gb::sim {

void MetricsCollector::on_frame_displayed(SimTime when,
                                          SimTime response_latency) {
  const auto bucket = static_cast<std::size_t>(when.seconds());
  if (per_second_.size() <= bucket) per_second_.resize(bucket + 1, 0);
  per_second_[bucket]++;
  response_ms_sum_ += response_latency.ms();
  latencies_ms_.push_back(response_latency.ms());
  if (have_last_display_) {
    const double gap_s = (when - last_display_).seconds();
    max_gap_s_ = std::max(max_gap_s_, gap_s);
    // A gap under ~100 ms reads as a dropped frame or two; past that the
    // display is visibly frozen — count the excess as stall time.
    constexpr double kStallThresholdS = 0.1;
    if (gap_s > kStallThresholdS) stall_s_ += gap_s - kStallThresholdS;
  }
  last_display_ = when;
  have_last_display_ = true;
  frames_++;
}

SessionMetrics MetricsCollector::finalize(SimTime session_duration) const {
  SessionMetrics m;
  m.frames_displayed = frames_;
  m.duration_s = session_duration.seconds();
  m.fps_timeline = per_second_;
  if (per_second_.empty() || frames_ == 0) return m;

  // Drop the first and last buckets (session warm-up / partial second) —
  // the "loading screens and menus" the median is meant to sidestep.
  std::vector<int> buckets = per_second_;
  if (buckets.size() > 4) {
    buckets.erase(buckets.begin());
    buckets.pop_back();
  }
  std::vector<int> sorted = buckets;
  std::sort(sorted.begin(), sorted.end());
  m.median_fps = static_cast<double>(sorted[sorted.size() / 2]);

  if (m.median_fps > 0.0) {
    const double lo = m.median_fps * 0.8;
    const double hi = m.median_fps * 1.2;
    int stable = 0;
    for (const int fps : buckets) {
      if (fps >= lo && fps <= hi) ++stable;
    }
    m.fps_stability = static_cast<double>(stable) /
                      static_cast<double>(buckets.size());
  }
  m.avg_response_ms = response_ms_sum_ / static_cast<double>(frames_);
  m.avg_issue_to_display_ms = m.avg_response_ms;
  m.max_display_gap_s = max_gap_s_;
  m.stall_seconds = stall_s_;
  std::vector<double> sorted_lat = latencies_ms_;
  std::sort(sorted_lat.begin(), sorted_lat.end());
  m.p95_response_ms =
      sorted_lat[static_cast<std::size_t>(
          static_cast<double>(sorted_lat.size() - 1) * 0.95)];
  m.p99_response_ms =
      sorted_lat[static_cast<std::size_t>(
          static_cast<double>(sorted_lat.size() - 1) * 0.99)];
  return m;
}

LatencySummary MetricsCollector::latency_summary() const {
  LatencySummary summary;
  if (frames_ == 0) return summary;
  summary.mean_ms = response_ms_sum_ / static_cast<double>(frames_);
  std::vector<double> sorted = latencies_ms_;
  std::sort(sorted.begin(), sorted.end());
  summary.p95_ms = runtime::percentile_sorted(sorted, 0.95);
  summary.p99_ms = runtime::percentile_sorted(sorted, 0.99);
  return summary;
}

void fill_stage_breakdown(const runtime::Tracer& tracer,
                          SessionMetrics& metrics) {
  // Only frames that made it to the screen participate: a span belonging to
  // an abandoned/redispatched attempt that never displayed would otherwise
  // skew the stage means away from the displayed-latency mean.
  std::set<std::uint64_t> displayed;
  for (const runtime::TraceSpan& span : tracer.spans()) {
    if (span.stage == runtime::Stage::kPresent ||
        span.stage == runtime::Stage::kLocalRender) {
      displayed.insert(span.sequence);
    }
  }
  if (displayed.empty()) return;

  // Sum span durations per (stage, displayed sequence) — a stage may emit
  // several spans for one frame (e.g. a retried uplink), and they add up.
  std::map<std::pair<runtime::Stage, std::uint64_t>, double> per_frame_ms;
  for (const runtime::TraceSpan& span : tracer.spans()) {
    if (!displayed.contains(span.sequence)) continue;
    per_frame_ms[{span.stage, span.sequence}] += (span.end - span.begin).ms();
  }

  std::vector<runtime::Histogram> histograms;
  histograms.reserve(runtime::kStageCount);
  for (std::size_t i = 0; i < runtime::kStageCount; ++i) {
    histograms.emplace_back(runtime::default_latency_bounds_ms());
  }
  for (const auto& [key, ms] : per_frame_ms) {
    histograms[static_cast<std::size_t>(key.first)].observe(ms);
  }
  for (std::size_t i = 0; i < runtime::kStageCount; ++i) {
    StageStats& stage = metrics.stage_breakdown[i];
    const runtime::Histogram& h = histograms[i];
    stage.count = h.count();
    stage.total_ms = h.sum();
    stage.mean_ms = h.count() > 0 ? h.mean() : 0.0;
    stage.p50_ms = h.percentile(0.5);
    stage.p99_ms = h.percentile(0.99);
  }
  metrics.has_stage_breakdown = true;
}

}  // namespace gb::sim
