// Pipeline tracing & metrics layer (DESIGN.md §9): histogram math, tracer
// span pairing, Chrome trace_event JSON schema, and the reconciliation
// invariant — a displayed frame's stage spans tile its issue-to-display
// interval, so the per-stage breakdown sums back to the measured latency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "device/device_profiles.h"
#include "runtime/metrics_registry.h"
#include "runtime/percentile.h"
#include "runtime/trace.h"
#include "sim/session.h"

namespace gb {
namespace {

// --- histogram / registry ---------------------------------------------------

TEST(Histogram, CountSumMean) {
  runtime::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0 / 3.0);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  runtime::Histogram h({10.0, 20.0});
  // 10 observations uniformly in the first bucket.
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  // Median target falls mid-bucket: interpolation across [0, 10).
  EXPECT_NEAR(h.percentile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(h.percentile(1.0), 10.0, 1e-9);
}

TEST(Histogram, OverflowBucketReportsMaxSeen) {
  runtime::Histogram h({1.0});
  h.observe(50.0);
  h.observe(75.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 75.0);
}

// --- shared percentile helper ------------------------------------------------

TEST(Percentile, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted({}, 0.95), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted(one, 1.0), 7.0);
}

// Regression: the per-user report used truncating nearest-rank
// (`sorted[n * 95 / 100]`), which at small n degenerates — ten samples
// reported the *maximum* as the p95 — and at q = 1.0 indexed one past the
// end whenever n was a multiple of 20. The shared helper interpolates
// between order statistics: rank h = q * (n - 1), lerped.
TEST(Percentile, SmallSampleInterpolatesInsteadOfTruncating) {
  std::vector<double> ten(10);
  for (int i = 0; i < 10; ++i) ten[i] = static_cast<double>(i + 1);
  // h = 0.95 * 9 = 8.55 => 9 + 0.55 * (10 - 9), not the max.
  EXPECT_NEAR(runtime::percentile_sorted(ten, 0.95), 9.55, 1e-12);
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted(ten, 0.5), 5.5);
  // q = 1.0 is the last order statistic, never one past it.
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted(ten, 1.0), 10.0);
  std::vector<double> twenty(20, 3.0);
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted(twenty, 1.0), 3.0);
}

TEST(Percentile, ClampsOutOfRangeQuantiles) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(runtime::percentile_sorted(v, 1.5), 3.0);
}

TEST(Percentile, LerpWithinBucketMatchesHistogramMath) {
  // 10 observations in bucket (0, 10], extracting the median target 5.0:
  // the same value Histogram::percentile has always pinned.
  EXPECT_NEAR(runtime::lerp_within_bucket(0.0, 10.0, 0.0, 10.0, 5.0), 5.0,
              1e-12);
  EXPECT_NEAR(runtime::lerp_within_bucket(0.0, 10.0, 0.0, 10.0, 10.0), 10.0,
              1e-12);
  // Target at or below the cumulative floor clamps to the bucket's lower
  // edge; beyond the bucket clamps to the upper edge.
  EXPECT_DOUBLE_EQ(runtime::lerp_within_bucket(10.0, 20.0, 5.0, 2.0, 4.0),
                   10.0);
  EXPECT_DOUBLE_EQ(runtime::lerp_within_bucket(10.0, 20.0, 5.0, 2.0, 9.0),
                   20.0);
}

TEST(MetricsRegistry, ReturnsStableNamedInstruments) {
  runtime::MetricsRegistry registry;
  runtime::Counter& c = registry.counter("frames");
  c.add(2);
  registry.counter("frames").add(3);
  EXPECT_EQ(registry.counter("frames").value(), 5u);
  registry.gauge("depth").set(4.0);
  EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), 4.0);
  registry.histogram("lat").observe(1.0);
  EXPECT_EQ(registry.histogram("lat").count(), 1u);
}

// --- tracer -----------------------------------------------------------------

// A -DGB_DISABLE_TRACING build turns the Tracer's recording methods into
// no-ops by design; the tests that need recorded spans skip there.
#define GB_SKIP_IF_TRACING_COMPILED_OUT()                        \
  if (!runtime::kTracingCompiledIn) {                            \
    GTEST_SKIP() << "tracing compiled out (GB_DISABLE_TRACING)"; \
  }

TEST(Tracer, PairsBeginEndAcrossTracks) {
  GB_SKIP_IF_TRACING_COMPILED_OUT();
  runtime::Tracer tracer;
  tracer.begin(runtime::Stage::kUplink, /*track=*/1, /*sequence=*/7, ms(10));
  tracer.end(runtime::Stage::kUplink, 7, ms(25));
  ASSERT_EQ(tracer.spans().size(), 1u);
  const runtime::TraceSpan& span = tracer.spans()[0];
  EXPECT_EQ(span.stage, runtime::Stage::kUplink);
  EXPECT_EQ(span.track, 1u);
  EXPECT_EQ(span.sequence, 7u);
  EXPECT_EQ((span.end - span.begin).ms(), 15.0);
}

TEST(Tracer, ReopeningAKeyOverwritesAndUnmatchedEndIsIgnored) {
  GB_SKIP_IF_TRACING_COMPILED_OUT();
  runtime::Tracer tracer;
  tracer.end(runtime::Stage::kDownlink, 3, ms(5));  // never opened: dropped
  EXPECT_TRUE(tracer.spans().empty());
  // A re-dispatched frame restarts its transport leg: the second begin wins.
  tracer.begin(runtime::Stage::kUplink, 1, 3, ms(10));
  tracer.begin(runtime::Stage::kUplink, 1, 3, ms(40));
  tracer.end(runtime::Stage::kUplink, 3, ms(50));
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ((tracer.spans()[0].end - tracer.spans()[0].begin).ms(), 10.0);
}

TEST(Tracer, StageNamesAreDistinct) {
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < runtime::kStageCount; ++i) {
    seen[runtime::stage_name(static_cast<runtime::Stage>(i))]++;
  }
  EXPECT_EQ(seen.size(), runtime::kStageCount);
}

// --- Chrome trace_event JSON schema ----------------------------------------

// Minimal recursive-descent JSON parser — just enough to validate the
// exporter's output is real JSON with the structure chrome://tracing needs.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why + " at offset " + std::to_string(pos_);
    }
    pos_ = text_.size();  // stop consuming
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  JsonValue value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }
  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    consume('{');
    if (consume('}')) return v;
    do {
      JsonValue key = string_value();
      if (!consume(':')) fail("expected ':'");
      v.object[key.string] = value();
    } while (consume(','));
    if (!consume('}')) fail("expected '}'");
    return v;
  }
  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    consume('[');
    if (consume(']')) return v;
    do {
      v.array.push_back(value());
    } while (consume(','));
    if (!consume(']')) fail("expected ']'");
    return v;
  }
  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    if (!consume('"')) {
      fail("expected string");
      return v;
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        v.string += text_[pos_ + 1];  // good enough for schema checking
        pos_ += 2;
      } else {
        v.string += text_[pos_++];
      }
    }
    if (!consume('"')) fail("unterminated string");
    return v;
  }
  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }
  JsonValue null() {
    JsonValue v;
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      fail("bad literal");
    }
    return v;
  }
  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    std::size_t consumed = 0;
    try {
      v.number = std::stod(text_.substr(pos_), &consumed);
    } catch (...) {
      fail("bad number");
      return v;
    }
    pos_ += consumed;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

sim::SessionConfig short_offload_config() {
  sim::SessionConfig config;
  config.workload = apps::g1_gta_san_andreas();
  config.user_device = device::nexus5();
  config.service_devices = {device::nvidia_shield()};
  config.duration_s = 3.0;
  config.seed = 11;
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 6;
  return config;
}

TEST(TraceExport, ChromeJsonIsValidAndMonotonicPerTrack) {
  GB_SKIP_IF_TRACING_COMPILED_OUT();
  runtime::Tracer tracer;
  sim::SessionConfig config = short_offload_config();
  config.tracer = &tracer;
  const sim::SessionResult result = sim::run_session(config);
  ASSERT_GT(result.metrics.frames_displayed, 10u);
  ASSERT_FALSE(tracer.spans().empty());

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string text = out.str();

  JsonParser parser(text);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->array.empty());

  std::map<double, double> last_ts_per_tid;
  std::size_t timed_events = 0;
  std::size_t metadata_events = 0;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = event.get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      metadata_events++;
      const JsonValue* args = event.get("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->get("name"), nullptr);
      continue;
    }
    ASSERT_TRUE(ph->string == "X" || ph->string == "i")
        << "unexpected phase " << ph->string;
    const JsonValue* tid = event.get("tid");
    const JsonValue* ts = event.get("ts");
    const JsonValue* name = event.get("name");
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(name, nullptr);
    EXPECT_GE(ts->number, 0.0);
    if (ph->string == "X") {
      const JsonValue* dur = event.get("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    }
    // Within each track the exporter must emit non-decreasing timestamps —
    // the property chrome://tracing relies on for nesting.
    const auto it = last_ts_per_tid.find(tid->number);
    if (it != last_ts_per_tid.end()) {
      EXPECT_GE(ts->number, it->second)
          << "track " << tid->number << " went backwards";
    }
    last_ts_per_tid[tid->number] = ts->number;
    timed_events++;
  }
  // Track-name metadata for the user device and the service device.
  EXPECT_GE(metadata_events, 2u);
  EXPECT_GT(timed_events, 100u);
  EXPECT_GE(last_ts_per_tid.size(), 2u);  // user + service tracks
}

// --- reconciliation ---------------------------------------------------------

// A displayed offloaded frame's spans must tile [issue, display] with no
// gaps or overlap, so the per-stage breakdown sums to the measured
// issue-to-display latency — the property that makes the breakdown
// trustworthy for optimization work.
void expect_spans_reconcile(const runtime::Tracer& tracer,
                            const sim::SessionMetrics& metrics) {
  std::map<std::uint64_t, std::vector<runtime::TraceSpan>> by_sequence;
  std::map<std::uint64_t, SimTime> displayed_at;
  for (const runtime::TraceSpan& span : tracer.spans()) {
    by_sequence[span.sequence].push_back(span);
    if (span.stage == runtime::Stage::kPresent) {
      displayed_at[span.sequence] = span.end;
    }
  }
  ASSERT_GT(displayed_at.size(), 10u);

  double latency_ms_sum = 0.0;
  for (const auto& [sequence, end] : displayed_at) {
    std::vector<runtime::TraceSpan> spans = by_sequence[sequence];
    std::sort(spans.begin(), spans.end(),
              [](const runtime::TraceSpan& a, const runtime::TraceSpan& b) {
                return a.begin < b.begin;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      ASSERT_EQ(spans[i].begin.us(), spans[i - 1].end.us())
          << "frame " << sequence << ": gap between "
          << runtime::stage_name(spans[i - 1].stage) << " and "
          << runtime::stage_name(spans[i].stage);
    }
    latency_ms_sum += (spans.back().end - spans.front().begin).ms();
  }
  const double avg_from_spans =
      latency_ms_sum / static_cast<double>(displayed_at.size());
  EXPECT_NEAR(avg_from_spans, metrics.avg_issue_to_display_ms, 1e-6);

  // The aggregated stage breakdown carries the same information: its totals
  // over displayed frames sum back to the same average.
  ASSERT_TRUE(metrics.has_stage_breakdown);
  double stage_total_ms = 0.0;
  for (const sim::StageStats& stage : metrics.stage_breakdown) {
    stage_total_ms += stage.total_ms;
  }
  EXPECT_NEAR(stage_total_ms / static_cast<double>(metrics.frames_displayed),
              metrics.avg_issue_to_display_ms, 1e-6);
}

// Every packed frame emits one `encode` instant from the dispatch pump, with
// or without the QoS governor, and the instants' cache and wire figures sum
// to the session's cache-stat and byte totals. Two devices, so both the
// render and the state caches contribute; a clean link, so no frame is
// re-encoded for a second device.
TEST(Reconciliation, EncodeInstantsSumToCacheStats) {
  GB_SKIP_IF_TRACING_COMPILED_OUT();
  for (const bool governed : {false, true}) {
    SCOPED_TRACE(governed ? "qos.enabled = true" : "qos.enabled = false");
    runtime::Tracer tracer;
    sim::SessionConfig config = short_offload_config();
    config.service_devices = {device::nvidia_shield(),
                              device::nvidia_shield()};
    config.wifi_loss_rate = 0.0;
    config.bt_loss_rate = 0.0;
    config.gbooster.qos.enabled = governed;
    config.tracer = &tracer;
    const sim::SessionResult result = sim::run_session(config);
    const core::GBoosterStats& g = result.gbooster;
    ASSERT_GT(g.frames_offloaded, 10u);
    ASSERT_EQ(g.frames_redispatched, 0u);
    ASSERT_EQ(g.snapshots_sent, 0u);

    std::map<std::string, double> sums;
    std::set<double> sequences;
    std::uint64_t instants = 0;
    for (const runtime::TraceInstant& instant : tracer.instants()) {
      if (instant.name != "encode") continue;
      ++instants;
      for (const auto& [key, value] : instant.args) {
        sums[key] += value;
        if (key == "sequence") sequences.insert(value);
      }
    }
    EXPECT_EQ(instants, g.frames_offloaded + g.frames_shed_window +
                            g.frames_shed_deadline);
    EXPECT_EQ(sequences.size(), instants);  // one per frame
    const compress::CacheStats& rc = g.render_cache;
    const compress::CacheStats& sc = g.state_cache;
    EXPECT_EQ(sums["cache_hits"], static_cast<double>(rc.hits + sc.hits));
    EXPECT_EQ(sums["cache_misses"],
              static_cast<double>(rc.misses + sc.misses));
    EXPECT_EQ(sums["raw_bytes"],
              static_cast<double>(rc.bytes_in + sc.bytes_in));
    EXPECT_EQ(sums["deduped_bytes"],
              static_cast<double>(rc.bytes_out + sc.bytes_out));
    EXPECT_EQ(sums["wire_bytes"], static_cast<double>(g.bytes_sent));
  }
}

TEST(Reconciliation, StageSpansTileIssueToDisplay) {
  GB_SKIP_IF_TRACING_COMPILED_OUT();
  runtime::Tracer tracer;
  sim::SessionConfig config = short_offload_config();
  config.tracer = &tracer;
  config.collect_stage_breakdown = true;
  const sim::SessionResult result = sim::run_session(config);
  expect_spans_reconcile(tracer, result.metrics);
  // The serialize..present stages all saw every displayed frame.
  for (std::size_t i = 0; i < static_cast<std::size_t>(runtime::Stage::kPresent);
       ++i) {
    EXPECT_EQ(result.metrics.stage_breakdown[i].count,
              result.metrics.frames_displayed)
        << runtime::stage_name(static_cast<runtime::Stage>(i));
  }
}

TEST(Reconciliation, BreakdownIsIdenticalAcrossWorkerThreadCounts) {
  GB_SKIP_IF_TRACING_COMPILED_OUT();
  runtime::Tracer t1;
  sim::SessionConfig c1 = short_offload_config();
  c1.tracer = &t1;
  c1.collect_stage_breakdown = true;
  c1.service.worker_threads = 1;
  const sim::SessionResult r1 = sim::run_session(c1);
  expect_spans_reconcile(t1, r1.metrics);

  runtime::Tracer t4;
  sim::SessionConfig c4 = short_offload_config();
  c4.tracer = &t4;
  c4.collect_stage_breakdown = true;
  c4.service.worker_threads = 4;
  const sim::SessionResult r4 = sim::run_session(c4);
  expect_spans_reconcile(t4, r4.metrics);

  // Host parallelism must not leak into the virtual timeline: same spans,
  // same breakdown, bit-identical metrics.
  ASSERT_EQ(t1.spans().size(), t4.spans().size());
  EXPECT_EQ(r1.metrics.frames_displayed, r4.metrics.frames_displayed);
  EXPECT_DOUBLE_EQ(r1.metrics.avg_issue_to_display_ms,
                   r4.metrics.avg_issue_to_display_ms);
  for (std::size_t i = 0; i < runtime::kStageCount; ++i) {
    EXPECT_EQ(r1.metrics.stage_breakdown[i].count,
              r4.metrics.stage_breakdown[i].count);
    EXPECT_DOUBLE_EQ(r1.metrics.stage_breakdown[i].total_ms,
                     r4.metrics.stage_breakdown[i].total_ms);
  }
}

}  // namespace
}  // namespace gb
