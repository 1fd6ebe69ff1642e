// GL-state snapshot / replica resync subsystem (DESIGN.md §10): the
// capture/serialize/install primitive, the cache-mirror shipping that rides
// with it, the wire message, and the two end-to-end flows it enables —
// breaker revival after missed state multicasts and mid-session hot-join —
// plus the scoped recovery of a single straggler's abandoned state stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "common/image.h"
#include "compress/command_cache.h"
#include "core/gbooster.h"
#include "core/offload_protocol.h"
#include "core/service_runtime.h"
#include "device/device_profiles.h"
#include "gles/context.h"
#include "gles/state_snapshot.h"
#include "net/fault_plan.h"
#include "net/medium.h"
#include "net/reliable.h"
#include "runtime/event_loop.h"
#include "sim/session.h"
#include "wire/recorder.h"
#include "test_support.h"

namespace gb {
namespace {

// --- gles::GlStateSnapshot ---------------------------------------------------

constexpr std::string_view kVs = R"(
  attribute vec4 a_position;
  void main() { gl_Position = a_position; }
)";

constexpr std::string_view kFs = R"(
  precision mediump float;
  uniform vec4 u_color;
  void main() { gl_FragColor = u_color; }
)";

gles::GLuint make_color_program(gles::GlContext& gl) {
  const gles::GLuint vs = gl.create_shader(gles::GL_VERTEX_SHADER);
  gl.shader_source(vs, kVs);
  gl.compile_shader(vs);
  EXPECT_EQ(gl.get_shaderiv(vs, gles::GL_COMPILE_STATUS), 1)
      << gl.get_shader_info_log(vs);
  const gles::GLuint fs = gl.create_shader(gles::GL_FRAGMENT_SHADER);
  gl.shader_source(fs, kFs);
  gl.compile_shader(fs);
  EXPECT_EQ(gl.get_shaderiv(fs, gles::GL_COMPILE_STATUS), 1)
      << gl.get_shader_info_log(fs);
  const gles::GLuint prog = gl.create_program();
  gl.attach_shader(prog, vs);
  gl.attach_shader(prog, fs);
  gl.link_program(prog);
  EXPECT_EQ(gl.get_programiv(prog, gles::GL_LINK_STATUS), 1)
      << gl.get_program_info_log(prog);
  return prog;
}

// Full-viewport quad in a VBO (client-memory attrib pointers are
// deliberately not captured by snapshots, so the geometry must live in a
// buffer object for the install-then-draw comparison to be meaningful).
gles::GLuint upload_quad(gles::GlContext& gl) {
  static const float verts[] = {
      -1, -1, 0, 1, -1, 0, -1, 1, 0,
      1,  -1, 0, 1, 1,  0, -1, 1, 0,
  };
  gles::GLuint vbo = 0;
  gl.gen_buffers(1, &vbo);
  gl.bind_buffer(gles::GL_ARRAY_BUFFER, vbo);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(verts);
  gl.buffer_data(gles::GL_ARRAY_BUFFER, {bytes, sizeof(verts)},
                 gles::GL_STATIC_DRAW);
  return vbo;
}

// Builds a context holding non-default state of every captured category:
// program + uniform, VBO-backed attrib, clear colour, blend switches.
void set_up_scene(gles::GlContext& gl) {
  const gles::GLuint prog = make_color_program(gl);
  upload_quad(gl);  // stays bound to GL_ARRAY_BUFFER
  gl.use_program(prog);
  gl.uniform4f(gl.get_uniform_location(prog, "u_color"), 0.2f, 0.7f, 0.4f,
               1.0f);
  const gles::GLint loc = gl.get_attrib_location(prog, "a_position");
  ASSERT_GE(loc, 0);
  gl.enable_vertex_attrib_array(static_cast<gles::GLuint>(loc));
  gl.vertex_attrib_pointer(static_cast<gles::GLuint>(loc), 3, gles::GL_FLOAT,
                           false, 0, nullptr);  // offset 0 into the VBO
  gl.clear_color(0.5f, 0.125f, 0.25f, 1.0f);
  gl.enable(gles::GL_BLEND);
  gl.blend_func(gles::GL_SRC_ALPHA, gles::GL_ONE_MINUS_SRC_ALPHA);
}

void draw_scene(gles::GlContext& gl) {
  gl.clear(gles::GL_COLOR_BUFFER_BIT);
  gl.draw_arrays(gles::GL_TRIANGLES, 0, 6);
}

TEST(GlStateSnapshot, SerializedInstallRendersBitIdentically) {
  gles::GlContext original(16, 16);
  set_up_scene(original);

  const Bytes wire = gles::capture_gl_state(original).serialize();
  gles::GlContext restored(16, 16);
  gles::install_gl_state(gles::GlStateSnapshot::deserialize(wire), restored);

  // Identical draws on both contexts from here on must produce identical
  // pixels — the restored replica carries the program, uniform, VBO,
  // attrib setup and clear colour without any of the original commands.
  draw_scene(original);
  draw_scene(restored);
  EXPECT_EQ(original.get_error(), gles::GL_NO_ERROR);
  EXPECT_EQ(restored.get_error(), gles::GL_NO_ERROR);
  const Image a = original.read_pixels();
  const Image b = restored.read_pixels();
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(a == b);
  // The draw actually produced the quad colour (guards against an
  // all-background false positive): u_color green is 0.7, clear green 0.125.
  EXPECT_GT(a.pixel(8, 8)[1], 150);
}

TEST(GlStateSnapshot, TruncatedSnapshotsFailWithError) {
  // Under an address-space cap, a snapshot cut anywhere fails with
  // gb::Error, and an image header that claims a 16384x16384 framebuffer
  // with no pixels behind it is rejected before 1 GiB is allocated for it.
  gles::GlContext gl(16, 16);
  set_up_scene(gl);
  draw_scene(gl);
  const Bytes wire = gles::capture_gl_state(gl).serialize();
  const test_support::AddressSpaceCap cap;
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(gles::GlStateSnapshot::deserialize(prefix), Error) << n;
  }
  // The framebuffer image is last: width, height, RGBA8 pixels, f32 depth.
  const std::size_t plane = 16 * 16 * 4;
  Bytes oversized(wire.begin(), wire.end() - static_cast<std::ptrdiff_t>(2 * plane));
  const std::size_t header = oversized.size() - 8;
  const std::int32_t huge = 16384;
  std::memcpy(oversized.data() + header, &huge, sizeof(huge));
  std::memcpy(oversized.data() + header + 4, &huge, sizeof(huge));
  EXPECT_THROW(gles::GlStateSnapshot::deserialize(oversized), Error);
}

TEST(GlStateSnapshot, RoundTripPreservesScalarStateAndNameCounters) {
  gles::GlContext gl(8, 8);
  set_up_scene(gl);
  const gles::GlStateSnapshot snap = gles::capture_gl_state(gl);
  const gles::GlStateSnapshot copy =
      gles::GlStateSnapshot::deserialize(snap.serialize());

  EXPECT_EQ(copy.surface_width, 8);
  EXPECT_EQ(copy.surface_height, 8);
  EXPECT_FLOAT_EQ(copy.clear_color[0], 0.5f);
  EXPECT_FLOAT_EQ(copy.clear_color[1], 0.125f);
  EXPECT_TRUE(copy.blend);
  EXPECT_FALSE(copy.depth_test);
  EXPECT_EQ(copy.blend_src, gles::GL_SRC_ALPHA);
  EXPECT_EQ(copy.buffers.size(), 1u);
  EXPECT_EQ(copy.shaders.size(), 2u);
  EXPECT_EQ(copy.programs.size(), 1u);
  EXPECT_EQ(copy.current_program, snap.current_program);
  EXPECT_EQ(copy.array_buffer_binding, snap.array_buffer_binding);
  // Name counters keep replica allocation in lock-step with the recorder.
  EXPECT_EQ(copy.next_buffer_name, snap.next_buffer_name);
  EXPECT_EQ(copy.next_shader_name, snap.next_shader_name);
  EXPECT_EQ(copy.next_program_name, snap.next_program_name);
  EXPECT_TRUE(copy.attribs.at(0).enabled || copy.attribs.at(1).enabled);
}

TEST(GlStateSnapshot, InstallAcrossSurfaceSizesCarriesStateNotPixels) {
  gles::GlContext big(16, 16);
  set_up_scene(big);
  draw_scene(big);  // leave pixels-in-progress behind

  // A differently-sized target still takes the GL state; only the
  // framebuffer planes are skipped, converging at the next clear.
  gles::GlContext small(8, 8);
  const gles::GlStateSnapshot snap = gles::capture_gl_state(big);
  EXPECT_NO_THROW(gles::install_gl_state(snap, small));
  small.clear(gles::GL_COLOR_BUFFER_BIT);
  const Image img = small.read_pixels();
  EXPECT_EQ(img.pixel(4, 4)[0], 127);  // 0.5 * 255 truncated: restored colour
  EXPECT_EQ(img.pixel(4, 4)[2], 63);   // 0.25 * 255 truncated
}

// --- compress::CommandCache serialize ----------------------------------------

Bytes record_of(std::string text) { return Bytes(text.begin(), text.end()); }

TEST(CommandCacheSnapshot, RoundTripPreservesEntriesAndRecencyOrder) {
  compress::CommandCache cache(64);
  cache.insert(1, record_of("alpha"));
  cache.insert(2, record_of("beta"));
  cache.insert(3, record_of("gamma"));
  cache.touch(1);  // recency now 1, 3, 2 (most-recent first)

  compress::CommandCache mirror =
      compress::CommandCache::deserialize(cache.serialize(), 64);
  EXPECT_EQ(mirror.entry_count(), 3u);
  EXPECT_EQ(mirror.resident_bytes(), cache.resident_bytes());
  ASSERT_NE(mirror.find(2), nullptr);
  EXPECT_EQ(*mirror.find(2), record_of("beta"));

  // Same recency order => same capacity-driven eviction from here on: a
  // 52-byte insert (14 resident + 52 > 64) must evict hash 2 — the LRU
  // entry, since touch(1) promoted 1 — on both sides, and stop there.
  cache.insert(4, record_of(std::string(52, 'x')));
  mirror.insert(4, record_of(std::string(52, 'x')));
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(mirror.find(2), nullptr);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_NE(mirror.find(1), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_NE(mirror.find(3), nullptr);
}

TEST(CommandCacheSnapshot, EmptyCacheRoundTrips) {
  const compress::CommandCache empty(1024);
  const compress::CommandCache mirror =
      compress::CommandCache::deserialize(empty.serialize(), 1024);
  EXPECT_EQ(mirror.entry_count(), 0u);
}

TEST(CommandCacheSnapshot, DeserializeRejectsCorruptPayloads) {
  compress::CommandCache cache(64);
  cache.insert(7, record_of("payload"));
  Bytes wire = cache.serialize();
  wire.resize(wire.size() - 2);  // truncated blob
  EXPECT_THROW(compress::CommandCache::deserialize(wire, 64), Error);
}

// --- core snapshot wire message ----------------------------------------------

TEST(SnapshotMessage, RoundTripsHeaderAndBlobs) {
  core::SnapshotHeader header;
  header.sequence = 4242;
  header.state_cache_epoch = 3;
  header.render_cache_epoch = 9;
  const Bytes gl_state = record_of("pretend GL state snapshot bytes");
  const Bytes mirror = record_of("pretend cache mirror bytes");

  const Bytes message = core::make_snapshot_message(header, gl_state, mirror);
  const auto parsed = core::parse_snapshot_message(message);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.sequence, 4242u);
  EXPECT_EQ(parsed->header.state_cache_epoch, 3u);
  EXPECT_EQ(parsed->header.render_cache_epoch, 9u);
  EXPECT_EQ(parsed->gl_state, gl_state);
  EXPECT_EQ(parsed->cache_mirror, mirror);
}

TEST(SnapshotMessage, ParseRejectsGarbage) {
  EXPECT_FALSE(core::parse_snapshot_message(record_of("junk")).has_value());
}

// --- end-to-end harness ------------------------------------------------------

core::ServiceRuntimeConfig tiny_service_config() {
  core::ServiceRuntimeConfig config;
  config.nominal_width = 64;
  config.nominal_height = 48;
  config.render_width = 64;
  config.render_height = 48;
  return config;
}

// One scenario run: a user runtime, a set of service devices, an optional
// fault plan, and a frame script keyed by issue index. Records every
// displayed frame by sequence so runs can be compared pixel-for-pixel.
struct ScenarioResult {
  std::map<std::uint64_t, Image> displayed;
  core::GBoosterStats user;
  std::vector<core::ServiceRuntimeStats> services;
  std::uint64_t renders_at_probe = 0;  // probed device's count at probe_at_s
};

struct ScenarioConfig {
  std::vector<core::ServiceDeviceInfo> devices;
  net::FaultPlanConfig faults;
  // Frame script: called with the issue index; issues GLES commands.
  std::function<void(gles::GlesApi&, int)> frame;
  double issue_until_s = 2.0;
  double run_until_s = 6.0;
  // Hot-join: device index (into `devices`) withheld from the runtime at
  // start and added at `hot_join_at_s` (< 0 disables).
  double hot_join_at_s = -1.0;
  std::size_t hot_join_index = 0;
  // Sample `renders_at_probe` for this device index at `probe_at_s`.
  double probe_at_s = -1.0;
  std::size_t probe_index = 0;
  // Breaker sensitivity; raise it to keep a partitioned device officially
  // healthy so losses are attributed by the transport, not the breaker.
  int failure_threshold = 3;
};

ScenarioResult run_scenario(const ScenarioConfig& sc) {
  EventLoop loop;
  net::MediumConfig mc;
  mc.loss_rate = 0.0;
  mc.jitter_ms = 0.0;
  net::Medium wifi(loop, mc, Rng(4), "wifi");
  net::FaultPlan plan(sc.faults);
  wifi.set_fault_plan(&plan);

  core::GBoosterConfig config;
  config.nominal_width = 64;
  config.nominal_height = 48;
  config.health.probe_interval = ms(50);
  config.health.probe_timeout = ms(100);
  config.health.failure_threshold = sc.failure_threshold;
  config.display_gap_timeout = seconds(2.0);

  std::vector<std::unique_ptr<core::ServiceRuntime>> services;
  std::vector<core::ServiceDeviceInfo> initial;
  for (std::size_t i = 0; i < sc.devices.size(); ++i) {
    auto service = std::make_unique<core::ServiceRuntime>(
        loop, sc.devices[i].node, device::nvidia_shield(),
        tiny_service_config());
    service->endpoint().bind(wifi, nullptr);
    service->set_fault_plan(&plan);
    const bool joins_later = sc.hot_join_at_s >= 0.0 && i == sc.hot_join_index;
    if (!joins_later) {
      wifi.join_group(config.state_group, sc.devices[i].node);
      initial.push_back(sc.devices[i]);
    }
    services.push_back(std::move(service));
  }

  net::ReliableConfig rc;
  rc.retransmit_timeout = ms(20);
  rc.max_retries = 3;
  net::ReliableEndpoint user(loop, 1, rc);
  user.bind(wifi, nullptr);
  core::GBoosterRuntime gbooster(loop, config, user, initial);
  user.set_handler([&](net::NodeId src, net::NodeId stream, Bytes message) {
    gbooster.on_message(src, stream, std::move(message));
  });
  gbooster.set_workload_override([] { return 5.0e6; });

  ScenarioResult result;
  gbooster.set_display_handler(
      [&](std::uint64_t sequence, SimTime, const Image& frame) {
        result.displayed[sequence] = frame;
      });

  if (sc.hot_join_at_s >= 0.0) {
    const core::ServiceDeviceInfo info = sc.devices[sc.hot_join_index];
    loop.schedule_at(seconds(sc.hot_join_at_s), [&, info] {
      wifi.join_group(config.state_group, info.node);
      gbooster.add_service_device(info);
    });
  }
  if (sc.probe_at_s >= 0.0) {
    loop.schedule_at(seconds(sc.probe_at_s), [&] {
      result.renders_at_probe =
          services[sc.probe_index]->stats().requests_rendered;
    });
  }

  int index = 0;
  std::function<void()> tick = [&] {
    if (loop.now().seconds() >= sc.issue_until_s) return;
    if (gbooster.can_issue_frame()) {
      sc.frame(gbooster.wrapper(), index);
      ++index;
    }
    loop.schedule_after(ms(50), tick);
  };
  tick();
  loop.run_until(seconds(sc.run_until_s));

  result.user = gbooster.stats();
  for (const auto& service : services) {
    result.services.push_back(service->stats());
  }
  return result;
}

// Clear-only frames whose colour is set *once* per phase, not per frame: a
// replica that misses the phase-change frame's state message keeps clearing
// with the stale colour forever — exactly the divergence a fast-forward
// reintegration cannot repair and a GL-state snapshot can.
void phase_colored_frame(gles::GlesApi& gl, int index, int change_at) {
  if (index == 0) gl.glClearColor(0.1f, 0.2f, 0.3f, 1.0f);
  if (index == change_at) gl.glClearColor(0.8f, 0.3f, 0.1f, 1.0f);
  gl.glClear(gles::GL_COLOR_BUFFER_BIT);
  gl.eglSwapBuffers();
}

// Compares every displayed frame against the reference run, except those in
// [exclude_begin, exclude_end): frames re-dispatched mid-flight during a
// death window execute their draws against later already-applied state (the
// documented draw-only approximation) and legitimately diverge — the claim
// under test is about frames rendered *outside* the fault window.
void expect_identical_streams(const ScenarioResult& run,
                              const ScenarioResult& reference,
                              std::uint64_t exclude_begin = 0,
                              std::uint64_t exclude_end = 0) {
  ASSERT_FALSE(run.displayed.empty());
  std::uint64_t compared = 0;
  for (const auto& [sequence, image] : run.displayed) {
    if (sequence >= exclude_begin && sequence < exclude_end) continue;
    const auto it = reference.displayed.find(sequence);
    if (it == reference.displayed.end()) continue;
    EXPECT_TRUE(image == it->second) << "frame " << sequence << " diverged";
    ++compared;
  }
  EXPECT_GT(compared, 20u);
}

// The pinned determinism test, revival flavour: a high-capability device is
// dead across a window in which the clear colour changes (so it misses well
// over two state multicasts, one of which it can never reconstruct), then
// revives and — per Eq. 4 and the delay-estimate reset — takes the render
// load back. Every frame it renders after revival must be bit-identical to
// the same frame in an undisturbed run. The old reintegration path
// fast-forwarded the apply cursor without any state transfer, leaving the
// pre-death clear colour installed, and fails this comparison.
TEST(SnapshotResync, RevivedDeviceRendersBitIdenticalFrames) {
  ScenarioConfig sc;
  // Device 101 is 50x faster, so Eq. 4 sends it everything while healthy;
  // 100 is the understudy that carries the outage window.
  sc.devices = {{100, "aux", 1e9}, {101, "main", 50e9}};
  sc.frame = [](gles::GlesApi& gl, int index) {
    phase_colored_frame(gl, index, /*change_at=*/10);  // inside the outage
  };
  sc.probe_at_s = 1.05;  // just after the outage heals
  sc.probe_index = 1;

  ScenarioConfig faulty = sc;
  faulty.faults.outages.push_back({101, seconds(0.4), seconds(1.0)});

  const ScenarioResult reference = run_scenario(sc);
  const ScenarioResult run = run_scenario(faulty);

  // The scenario actually exercised the path under test: 101 died, state
  // multicasts during the outage skipped it (the breaker's death handling
  // stops repairs toward a corpse), and it came back via snapshot.
  EXPECT_GE(run.user.device_failovers, 1u);
  EXPECT_GE(run.user.device_reintegrations, 1u);
  EXPECT_GE(run.user.snapshots_sent, 1u);
  EXPECT_EQ(run.user.state_epoch_resets, 0u);
  EXPECT_EQ(run.user.frames_dropped, 0u);
  ASSERT_EQ(run.services.size(), 2u);
  EXPECT_GE(run.services[1].snapshots_installed, 1u);
  // The revived device rendered real frames after the heal...
  EXPECT_GT(run.services[1].requests_rendered, run.renders_at_probe);
  // ...and every frame outside the outage window (frames 8..19 are issued
  // while 101 is down; the first few of those are re-dispatched mid-flight
  // and take the documented draw-only divergence) matches the undisturbed
  // run pixel-for-pixel — including everything the revived device renders.
  expect_identical_streams(run, reference, /*exclude_begin=*/8,
                           /*exclude_end=*/20);
}

// The pinned determinism test, hot-join flavour: a device that joins
// mid-session — after the only frames that set the clear colour — must
// render bit-identically to an always-present device. Without the snapshot
// it would start from a default-constructed context (and could not decode
// the state stream at all).
TEST(SnapshotResync, HotJoinedDeviceRendersBitIdenticalFrames) {
  ScenarioConfig sc;
  sc.devices = {{100, "incumbent", 1e9}, {101, "joiner", 50e9}};
  sc.frame = [](gles::GlesApi& gl, int index) {
    phase_colored_frame(gl, index, /*change_at=*/4);  // before the join
  };
  sc.probe_at_s = 0.55;
  sc.probe_index = 1;

  ScenarioConfig joining = sc;
  joining.hot_join_at_s = 0.5;
  joining.hot_join_index = 1;

  const ScenarioResult reference = run_scenario(sc);
  const ScenarioResult run = run_scenario(joining);

  EXPECT_EQ(run.user.devices_hot_joined, 1u);
  // The joiner got its checkpoint, and so did the incumbent: a 1 -> 2
  // transition starts the state multicast stream mid-sequence, which the
  // incumbent (having only ever seen full render messages) could not
  // otherwise follow.
  EXPECT_GE(run.user.snapshots_sent, 2u);
  ASSERT_EQ(run.services.size(), 2u);
  EXPECT_GE(run.services[0].snapshots_installed, 1u);
  EXPECT_GE(run.services[1].snapshots_installed, 1u);
  EXPECT_EQ(run.user.frames_dropped, 0u);
  // The joiner took over the render load after joining...
  EXPECT_GT(run.services[1].requests_rendered, run.renders_at_probe);
  // ...rendering pixel-identical frames despite never seeing frames 0..join.
  expect_identical_streams(run, reference);
}

// Scoped recovery: when one device of a healthy fleet misses a state
// multicast for good (transport abandon), only that device is resynced — the
// other replicas acknowledged and applied the message, so there is nothing
// to reset fleet-wide. The pre-snapshot behaviour bumped the shared state
// epoch and restarted every mirror.
TEST(SnapshotResync, SingleStragglerAbandonIsScopedNotGlobal) {
  ScenarioConfig sc;
  // 101 has negligible capability: it participates in state replication but
  // never renders, so the one-way partition below abandons only its state
  // multicasts, never a render message.
  sc.devices = {{100, "renderer", 6e9}, {101, "straggler", 1e6}};
  sc.frame = [](gles::GlesApi& gl, int index) {
    // A fresh colour every frame keeps every state message non-empty.
    const float c = 0.1f + 0.01f * static_cast<float>(index % 64);
    gl.glClearColor(c, c, c, 1.0f);
    gl.glClear(gles::GL_COLOR_BUFFER_BIT);
    gl.eglSwapBuffers();
  };
  sc.issue_until_s = 2.5;
  sc.faults.partitions.push_back({1, 101, seconds(0.3), seconds(1.2)});
  // Keep 101 breaker-healthy through the partition (its pongs are cut too):
  // the claim under test is the *transport-attributed* scoped path, not the
  // breaker's death handling.
  sc.failure_threshold = 1000;

  const ScenarioResult run = run_scenario(sc);

  // State multicasts toward 101 were abandoned by the transport...
  EXPECT_GE(run.user.scoped_state_recoveries, 1u);
  EXPECT_GE(run.user.snapshots_sent, 1u);
  // ...without a fleet-wide epoch reset: 100's mirror kept decoding.
  EXPECT_EQ(run.user.state_epoch_resets, 0u);
  ASSERT_EQ(run.services.size(), 2u);
  EXPECT_EQ(run.services[0].state_decode_poisonings, 0u);
  EXPECT_GT(run.services[0].requests_rendered, 0u);
  // The straggler resumed from the snapshot and kept applying state. (It
  // never observes the gap itself here: the resync is triggered by the same
  // abandon that advances the stream floor, and its unicast outruns the
  // gap-revealing multicast — the poison/quarantine ordering is pinned
  // deterministically in ServiceQuarantine below.)
  EXPECT_GE(run.services[1].snapshots_installed, 1u);
  EXPECT_GT(run.services[1].state_messages_applied, 0u);
  EXPECT_EQ(run.user.frames_dropped, 0u);
}

// --- service-side decode timeline -------------------------------------------

// Deterministic poison/quarantine/heal ordering, service side: a sequence
// gap poisons the session, the unfollowable message is quarantined raw, and
// a snapshot install re-bases the cursor, drops the quarantine entries it
// covers, and resumes decoding. The e2e scenarios reach this path only when
// transport timing lets a gap-revealing message beat the snapshot; here the
// ordering is forced.
TEST(ServiceQuarantine, GapPoisonsQuarantinesAndSnapshotHeals) {
  EventLoop loop;
  net::MediumConfig mc;
  mc.loss_rate = 0.0;
  mc.jitter_ms = 0.0;
  net::Medium lan(loop, mc, Rng(7), "lan");
  core::ServiceRuntime service(loop, 100, device::nvidia_shield(),
                               tiny_service_config());
  service.endpoint().bind(lan, nullptr);
  net::ReliableEndpoint user(loop, 1, net::ReliableConfig{});
  user.bind(lan, nullptr);

  // Client-side replica: four clear-colour frames recorded against a shadow
  // context, their state messages encoded in order against one cache — the
  // same discipline the runtime uses.
  std::vector<wire::FrameCommands> frames;
  wire::CommandRecorder rec(64, 48, [&](wire::FrameCommands f) {
    frames.push_back(std::move(f));
    return true;
  });
  compress::CommandCache sender_cache;
  compress::CacheStats cs;
  std::vector<Bytes> msgs;
  const auto record_frame = [&](float red) {
    rec.glClearColor(red, 0.2f, 0.3f, 1.0f);
    rec.eglSwapBuffers();
    core::StateHeader h;
    h.sequence = frames.back().sequence;
    msgs.push_back(
        core::make_state_message(h, frames.back(), sender_cache, cs));
  };
  record_frame(0.1f);
  record_frame(0.2f);
  record_frame(0.3f);
  // Capture point: the shadow holds frames 0..2, the mirror their encodings.
  core::SnapshotHeader sh;
  sh.sequence = rec.next_sequence();
  const Bytes snapshot = core::make_snapshot_message(
      sh, gles::capture_gl_state(rec.shadow()).serialize(),
      sender_cache.serialize());
  record_frame(0.4f);

  // Deliver seq 0, then seq 2 (seq 1 is never sent — its multicast was
  // abandoned toward this replica), then the snapshot, then seq 3.
  loop.schedule_at(ms(1), [&] { user.send(100, msgs[0]); });
  loop.schedule_at(ms(5), [&] { user.send(100, msgs[2]); });
  loop.schedule_at(ms(10), [&] { user.send(100, snapshot); });
  loop.schedule_at(ms(15), [&] { user.send(100, msgs[3]); });
  loop.run_until(ms(100));

  const core::ServiceRuntimeStats& st = service.stats();
  EXPECT_EQ(st.state_decode_poisonings, 1u);
  EXPECT_EQ(st.state_messages_quarantined, 1u);
  EXPECT_EQ(st.snapshots_installed, 1u);
  EXPECT_EQ(st.state_messages_skipped_by_snapshot, 1u);
  EXPECT_EQ(st.state_messages_applied, 2u);  // seq 0 before, seq 3 after
}

// --- sim-level hot-join ------------------------------------------------------

TEST(SnapshotSession, HotJoinSessionIsHealthyAndDeterministic) {
  sim::SessionConfig config;
  config.workload = apps::g1_gta_san_andreas();
  config.user_device = device::nexus5();
  config.service_devices = {device::nvidia_shield()};
  config.hot_joins.push_back({device::nvidia_shield(), 3.0});
  config.duration_s = 6.0;
  config.seed = 11;
  config.service.render_width = 96;
  config.service.render_height = 72;
  config.service.content_sample_every = 6;

  const sim::SessionResult a = sim::run_session(config);
  const sim::SessionResult b = sim::run_session(config);

  EXPECT_EQ(a.gbooster.devices_hot_joined, 1u);
  EXPECT_GE(a.gbooster.snapshots_sent, 2u);  // joiner + incumbent
  EXPECT_EQ(a.gbooster.frames_dropped, 0u);
  EXPECT_GT(a.metrics.frames_displayed, 100u);
  EXPECT_EQ(a.metrics.frames_displayed, b.metrics.frames_displayed);
  EXPECT_EQ(a.gbooster.snapshots_sent, b.gbooster.snapshots_sent);
  EXPECT_EQ(a.gbooster.bytes_sent, b.gbooster.bytes_sent);
}

}  // namespace
}  // namespace gb
