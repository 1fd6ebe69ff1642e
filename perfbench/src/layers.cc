#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "apps/game_app.h"
#include "apps/touch.h"
#include "codec/turbo_codec.h"
#include "compress/command_cache.h"
#include "compress/lz4.h"
#include "core/offload_protocol.h"
#include "core/tile_fusion.h"
#include "device/device_profiles.h"
#include "gles/direct_backend.h"
#include "hooking/dynamic_linker.h"
#include "net/fault_plan.h"
#include "net/medium.h"
#include "net/radio.h"
#include "net/reliable.h"
#include "runtime/event_loop.h"
#include "sim/fleet.h"
#include "wire/decoder.h"
#include "wire/recorder.h"

namespace perfbench {
namespace {

using namespace gb;

template <typename F>
double time_us(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Counts every GLES call the app makes, forwarding it unchanged. Runs on its
// own app copy so the count costs nothing on the timed paths.
class CountingApi final : public gles::GlesApi {
 public:
  explicit CountingApi(gles::GlesApi& target) : target_(target) {}
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

#define GB_FORWARD(ret, name, params, args) \
  ret name params override {                \
    ++calls_;                               \
    return target_.name args;               \
  }
  using GLenum = gles::GLenum;
  using GLuint = gles::GLuint;
  using GLint = gles::GLint;
  using GLsizei = gles::GLsizei;
  using GLfloat = gles::GLfloat;
  using GLbitfield = gles::GLbitfield;
  using GLboolean = gles::GLboolean;
  using GLsizeiptr = gles::GLsizeiptr;
  using GLintptr = gles::GLintptr;
  GB_FORWARD(GLenum, glGetError, (), ())
  GB_FORWARD(void, glClearColor, (GLfloat r, GLfloat g, GLfloat b, GLfloat a),
             (r, g, b, a))
  GB_FORWARD(void, glClear, (GLbitfield mask), (mask))
  GB_FORWARD(void, glViewport, (GLint x, GLint y, GLsizei w, GLsizei h),
             (x, y, w, h))
  GB_FORWARD(void, glScissor, (GLint x, GLint y, GLsizei w, GLsizei h),
             (x, y, w, h))
  GB_FORWARD(void, glEnable, (GLenum cap), (cap))
  GB_FORWARD(void, glDisable, (GLenum cap), (cap))
  GB_FORWARD(void, glBlendFunc, (GLenum s, GLenum d), (s, d))
  GB_FORWARD(void, glDepthFunc, (GLenum func), (func))
  GB_FORWARD(void, glCullFace, (GLenum mode), (mode))
  GB_FORWARD(void, glFrontFace, (GLenum mode), (mode))
  GB_FORWARD(void, glGenBuffers, (GLsizei n, GLuint* out), (n, out))
  GB_FORWARD(void, glDeleteBuffers, (GLsizei n, const GLuint* names),
             (n, names))
  GB_FORWARD(void, glBindBuffer, (GLenum target, GLuint name), (target, name))
  GB_FORWARD(void, glBufferData,
             (GLenum target, GLsizeiptr size, const void* data, GLenum usage),
             (target, size, data, usage))
  GB_FORWARD(void, glBufferSubData,
             (GLenum target, GLintptr offset, GLsizeiptr size,
              const void* data),
             (target, offset, size, data))
  GB_FORWARD(void, glGenTextures, (GLsizei n, GLuint* out), (n, out))
  GB_FORWARD(void, glDeleteTextures, (GLsizei n, const GLuint* names),
             (n, names))
  GB_FORWARD(void, glActiveTexture, (GLenum unit), (unit))
  GB_FORWARD(void, glBindTexture, (GLenum target, GLuint name), (target, name))
  GB_FORWARD(void, glTexImage2D,
             (GLenum target, GLint level, GLenum internal_format,
              GLsizei width, GLsizei height, GLint border, GLenum format,
              GLenum type, const void* pixels),
             (target, level, internal_format, width, height, border, format,
              type, pixels))
  GB_FORWARD(void, glTexSubImage2D,
             (GLenum target, GLint level, GLint xoffset, GLint yoffset,
              GLsizei width, GLsizei height, GLenum format, GLenum type,
              const void* pixels),
             (target, level, xoffset, yoffset, width, height, format, type,
              pixels))
  GB_FORWARD(void, glTexParameteri, (GLenum target, GLenum pname, GLint param),
             (target, pname, param))
  GB_FORWARD(GLuint, glCreateShader, (GLenum type), (type))
  GB_FORWARD(void, glDeleteShader, (GLuint shader), (shader))
  GB_FORWARD(void, glShaderSource, (GLuint shader, std::string_view source),
             (shader, source))
  GB_FORWARD(void, glCompileShader, (GLuint shader), (shader))
  GB_FORWARD(GLint, glGetShaderiv, (GLuint shader, GLenum pname),
             (shader, pname))
  GB_FORWARD(std::string, glGetShaderInfoLog, (GLuint shader), (shader))
  GB_FORWARD(GLuint, glCreateProgram, (), ())
  GB_FORWARD(void, glDeleteProgram, (GLuint program), (program))
  GB_FORWARD(void, glAttachShader, (GLuint program, GLuint shader),
             (program, shader))
  GB_FORWARD(void, glBindAttribLocation,
             (GLuint program, GLuint index, std::string_view name),
             (program, index, name))
  GB_FORWARD(void, glLinkProgram, (GLuint program), (program))
  GB_FORWARD(GLint, glGetProgramiv, (GLuint program, GLenum pname),
             (program, pname))
  GB_FORWARD(void, glUseProgram, (GLuint program), (program))
  GB_FORWARD(GLint, glGetAttribLocation,
             (GLuint program, std::string_view name), (program, name))
  GB_FORWARD(GLint, glGetUniformLocation,
             (GLuint program, std::string_view name), (program, name))
  GB_FORWARD(void, glUniform1f, (GLint location, GLfloat x), (location, x))
  GB_FORWARD(void, glUniform2f, (GLint location, GLfloat x, GLfloat y),
             (location, x, y))
  GB_FORWARD(void, glUniform3f,
             (GLint location, GLfloat x, GLfloat y, GLfloat z),
             (location, x, y, z))
  GB_FORWARD(void, glUniform4f,
             (GLint location, GLfloat x, GLfloat y, GLfloat z, GLfloat w),
             (location, x, y, z, w))
  GB_FORWARD(void, glUniform1i, (GLint location, GLint x), (location, x))
  GB_FORWARD(void, glUniformMatrix4fv,
             (GLint location, GLsizei count, GLboolean transpose,
              const GLfloat* value),
             (location, count, transpose, value))
  GB_FORWARD(void, glEnableVertexAttribArray, (GLuint index), (index))
  GB_FORWARD(void, glDisableVertexAttribArray, (GLuint index), (index))
  GB_FORWARD(void, glVertexAttrib4f,
             (GLuint index, GLfloat x, GLfloat y, GLfloat z, GLfloat w),
             (index, x, y, z, w))
  GB_FORWARD(void, glVertexAttribPointer,
             (GLuint index, GLint size, GLenum type, GLboolean normalized,
              GLsizei stride, const void* pointer),
             (index, size, type, normalized, stride, pointer))
  GB_FORWARD(void, glDrawArrays, (GLenum mode, GLint first, GLsizei count),
             (mode, first, count))
  GB_FORWARD(void, glDrawElements,
             (GLenum mode, GLsizei count, GLenum type, const void* indices),
             (mode, count, type, indices))
  GB_FORWARD(void, glFlush, (), ())
  GB_FORWARD(void, glFinish, (), ())
  GB_FORWARD(bool, eglSwapBuffers, (), ())
#undef GB_FORWARD

 private:
  gles::GlesApi& target_;
  std::uint64_t calls_ = 0;
};

// What drives one app frame: its animation time, whether a touch burst is
// on, and whether the scene changes first — drawn the way the session's app
// driver draws them.
struct FrameInput {
  double t = 0.0;
  bool burst = false;
  bool scene_change = false;
};

std::vector<FrameInput> make_inputs(const apps::WorkloadSpec& spec,
                                    double cpu_frame_s, double fps,
                                    int frames, Rng rng) {
  apps::TouchScriptConfig touch_config;
  touch_config.duration_s = frames / fps + 1.0;
  touch_config.burst_rate_hz = spec.burst_rate_hz;
  touch_config.burst_duration_s = spec.burst_duration_s;
  touch_config.base_touch_rate_hz = spec.touch_rate_hz;
  touch_config.burst_touch_rate_hz = spec.touch_burst_rate_hz;
  const apps::TouchScript touch(touch_config, rng.fork());
  std::vector<FrameInput> inputs;
  bool last_burst = false;
  for (int i = 0; i < frames; ++i) {
    FrameInput in;
    in.t = i / fps;
    in.burst = touch.burst_active(in.t);
    in.scene_change =
        (in.burst && !last_burst && rng.chance(0.7)) ||
        rng.chance(spec.scene_change_rate_hz * cpu_frame_s * 4.0);
    last_burst = in.burst;
    inputs.push_back(in);
  }
  return inputs;
}

net::NodeId user_node(std::size_t user) {
  return static_cast<net::NodeId>(1 + user);
}
net::NodeId device_node(std::size_t device) {
  return static_cast<net::NodeId>(100 + device);
}

// How the service side of a workload treats a user's frames.
struct ServiceShape {
  int nominal_width = 600;
  int nominal_height = 480;
  int render_width = 0;  // 0 = analytic mode: no replay, no pixels
  int render_height = 0;
  int sample_every = 1;
  double size_scale_exponent = 0.79;
  bool tile_binned = true;
  bool fused = true;  // render-tile -> encode-tile fusion, as the service runs
  codec::TurboConfig codec;
};

// One service device's replica of a user's session.
struct Replica {
  compress::CommandCache render_mirror;
  compress::CommandCache state_mirror;
  std::unique_ptr<gles::DirectBackend> backend;  // null in analytic mode
  // Fed the same replays as `backend` and flushed on its own, to time the
  // raster apart from the service's fused raster + encode call.
  std::unique_ptr<gles::DirectBackend> twin;
  codec::TurboEncoder encoder;
  codec::TurboDecoder decoder;  // the user's decoder of this device's stream
  std::uint64_t content_counter = 0;
  std::uint64_t mirror_rev = 0;
  std::uint32_t last_nominal_bytes = 0;
  gles::RenderStats raster_seen;  // twin counters at the last sampled frame
};

// A framed protocol message of the workload, as the net probe replays it.
struct NetMsg {
  int frame = 0;
  std::size_t user = 0;
  std::size_t device = 0;
  enum Kind { kStateMulticast, kRender, kResult } kind = kRender;
  Bytes message;
};

// Host-time and work counters summed over every probed frame.
struct Totals {
  double hooked_us = 0.0;
  double record_us = 0.0;
  double cache_encode_us = 0.0;
  double cache_decode_us = 0.0;
  double lz4_us = 0.0;
  double unlz4_us = 0.0;
  double replay_us = 0.0;
  double raster_us = 0.0;
  double fused_us = 0.0;  // the service's raster + encode call
  double decode_us = 0.0;
  double frames = 0.0;
  double calls = 0.0;
  double records = 0.0;
  double raw_bytes = 0.0;
  double packed_bytes = 0.0;
  double lz4_bytes = 0.0;
  double content_bytes = 0.0;
  double fragments_shaded = 0.0;
  double early_z_culled = 0.0;
  double tiles_shaded = 0.0;
  compress::CacheStats cache;
};

bool same_records(const wire::FrameCommands& a, const wire::FrameCommands& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].bytes != b.records[i].bytes) return false;
  }
  return true;
}

wire::FrameCommands state_only(const wire::FrameCommands& frame) {
  wire::FrameCommands out;
  out.sequence = frame.sequence;
  for (const wire::CommandRecord& record : frame.records) {
    if (wire::mutates_shared_state(record.op())) out.records.push_back(record);
  }
  return out;
}

bool same_pixels(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::equal(a.bytes().begin(), a.bytes().end(), b.bytes().begin());
}

// One user's pipeline: the app on three paths (direct to the recorder,
// through the linker's dispatch table, through the call counter), an
// optional local-render reference, the user-side caches and one replica per
// service device. Heap-allocated: apps hold references into it.
class UserPipeline {
 public:
  UserPipeline(const apps::WorkloadSpec& spec, int app_width, int app_height,
               const ServiceShape& shape, std::size_t devices, Rng app_rng,
               std::vector<FrameInput> inputs)
      : shape_(shape),
        workload_pixels_(spec.gpu_workload_pixels),
        inputs_(std::move(inputs)),
        recorder_(app_width, app_height,
                  [this](wire::FrameCommands frame) {
                    recorded_ = std::move(frame);
                    return true;
                  }),
        hooked_recorder_(app_width, app_height,
                         [](wire::FrameCommands) { return true; }),
        genuine_(64, 48, gles::PresentFn{}),
        counted_recorder_(app_width, app_height,
                          [](wire::FrameCommands) { return true; }),
        counter_(counted_recorder_),
        render_caches_(devices),
        framing_render_caches_(devices) {
    linker_.register_library(
        hooking::LibraryImage::exporting_all("libGLESv2.so", &genuine_));
    linker_.register_library(hooking::LibraryImage::exporting_all(
        "libgbooster.so", &hooked_recorder_));
    linker_.set_preload({"libgbooster.so"});
    hooked_api_ = linker_.link_gles("libGLESv2.so");

    apps_.push_back(std::make_unique<apps::GameApp>(spec, recorder_, app_width,
                                                    app_height, app_rng));
    apps_.push_back(std::make_unique<apps::GameApp>(
        spec, *hooked_api_, app_width, app_height, app_rng));
    apps_.push_back(std::make_unique<apps::GameApp>(spec, counter_, app_width,
                                                    app_height, app_rng));
    if (shape.render_width > 0) {
      local_ = std::make_unique<gles::DirectBackend>(
          shape.render_width, shape.render_height,
          [this](const Image& frame) { local_frame_ = frame; });
      apps_.push_back(std::make_unique<apps::GameApp>(
          spec, *local_, app_width, app_height, app_rng));
    }
    for (std::size_t d = 0; d < devices; ++d) {
      auto replica = std::make_unique<Replica>();
      replica->encoder = codec::TurboEncoder(shape.codec);
      if (shape.render_width > 0) {
        for (auto* backend : {&replica->backend, &replica->twin}) {
          *backend = std::make_unique<gles::DirectBackend>(
              shape.render_width, shape.render_height, gles::PresentFn{});
          (*backend)->context().set_raster_mode(
              shape.tile_binned ? gles::RasterMode::kTileBinned
                                : gles::RasterMode::kRowBand);
        }
      }
      replicas_.push_back(std::move(replica));
    }
    // The loading phase: every copy of the app uploads its assets.
    for (auto& app : apps_) app->setup();
  }

  // Runs frame `i` through every layer, adding its costs to `totals` and its
  // messages to `msgs`.
  void step(int i, std::size_t user, Totals& totals, LayerChecks& checks,
            std::vector<NetMsg>& msgs) {
    const FrameInput& in = inputs_[static_cast<std::size_t>(i)];
    if (in.scene_change) {
      for (auto& app : apps_) app->trigger_scene_change();
    }
    apps::GameApp& app = *apps_[0];
    apps::GameApp& hooked_app = *apps_[1];
    totals.hooked_us +=
        time_us([&] { hooked_app.render_frame(in.t, in.burst); });
    totals.record_us += time_us([&] { app.render_frame(in.t, in.burst); });
    const std::uint64_t calls_before = counter_.calls();
    apps_[2]->render_frame(in.t, in.burst);
    totals.calls += static_cast<double>(counter_.calls() - calls_before);
    if (local_ != nullptr) apps_[3]->render_frame(in.t, in.burst);

    const wire::FrameCommands frame = std::move(*recorded_);
    recorded_.reset();
    totals.frames += 1.0;
    totals.records += static_cast<double>(frame.records.size());
    totals.raw_bytes += static_cast<double>(frame.total_bytes());

    const std::size_t devices = replicas_.size();
    const std::size_t renderer = static_cast<std::size_t>(i) % devices;

    // Multi-device: the state records are multicast to every replica, each
    // of which decodes them against its own state-cache mirror.
    std::vector<wire::FrameCommands> decoded_state(devices);
    if (devices > 1) {
      const wire::FrameCommands state = state_only(frame);
      const Packed packed = encode(state, state_cache_, totals);
      core::StateHeader header;
      header.sequence = frame.sequence;
      header.renderer_node = device_node(renderer);
      msgs.push_back({i, user, 0, NetMsg::kStateMulticast,
                      core::make_state_message(header, state,
                                               framing_state_cache_,
                                               framing_stats_)});
      for (std::size_t d = 0; d < devices; ++d) {
        decoded_state[d] =
            decode(packed, replicas_[d]->state_mirror, totals);
        checks.cache_roundtrip =
            checks.cache_roundtrip && same_records(decoded_state[d], state);
      }
    }

    // The complete frame is unicast to its renderer against that device's
    // render-cache mirror.
    Replica& r = *replicas_[renderer];
    const Packed packed = encode(frame, render_caches_[renderer], totals);
    core::RenderRequestHeader request;
    request.sequence = frame.sequence;
    request.workload_pixels = workload_pixels_;
    request.mirror_rev = r.mirror_rev++;
    msgs.push_back({i, user, renderer, NetMsg::kRender,
                    core::make_render_message(
                        request, frame, framing_render_caches_[renderer],
                        framing_stats_)});
    const wire::FrameCommands decoded =
        decode(packed, r.render_mirror, totals);
    checks.cache_roundtrip =
        checks.cache_roundtrip && same_records(decoded, frame);

    core::FrameResultHeader result;
    result.sequence = frame.sequence;
    Bytes content;
    if (shape_.render_width == 0) {
      // Analytic service: no replay; the result size comes from the
      // fleet's size model.
      core::ParsedRender parsed;
      parsed.header = request;
      parsed.records = decoded;
      r.last_nominal_bytes = sim::fleet_analytic_size_model()(parsed);
    } else {
      content = replay_and_encode(renderer, decoded, decoded_state, totals,
                                  checks);
    }
    result.nominal_bytes = std::max<std::uint32_t>(r.last_nominal_bytes, 64);
    result.has_content = !content.empty();
    msgs.push_back({i, user, renderer, NetMsg::kResult,
                    core::make_frame_message(result, content)});
  }

  [[nodiscard]] double cache_resident_bytes() const {
    double bytes = static_cast<double>(state_cache_.resident_bytes());
    for (const compress::CommandCache& cache : render_caches_) {
      bytes += static_cast<double>(cache.resident_bytes());
    }
    for (const auto& r : replicas_) {
      bytes += static_cast<double>(r->render_mirror.resident_bytes() +
                                   r->state_mirror.resident_bytes());
    }
    return bytes;
  }

 private:
  // A message body: the LZ4 block and the cache-encoded size it restores.
  struct Packed {
    Bytes block;
    std::size_t raw_size = 0;
  };

  // Cache-encode then LZ4, as the sender packs a message body.
  static Packed encode(const wire::FrameCommands& frame,
                       compress::CommandCache& cache, Totals& totals) {
    Bytes packed;
    totals.cache_encode_us += time_us(
        [&] { packed = core::pack_commands(frame, cache, totals.cache); });
    Bytes block;
    totals.lz4_us += time_us([&] { block = compress::lz4_compress(packed); });
    totals.packed_bytes += static_cast<double>(packed.size());
    totals.lz4_bytes += static_cast<double>(block.size());
    return Packed{std::move(block), packed.size()};
  }

  // LZ4 decompress then cache-decode, as a receiver unpacks it.
  static wire::FrameCommands decode(const Packed& packed,
                                    compress::CommandCache& mirror,
                                    Totals& totals) {
    std::optional<Bytes> raw;
    totals.unlz4_us += time_us([&] {
      raw = compress::lz4_decompress(packed.block, packed.raw_size);
    });
    std::optional<wire::FrameCommands> frame;
    if (raw.has_value()) {
      totals.cache_decode_us +=
          time_us([&] { frame = core::unpack_commands(*raw, mirror); });
    }
    return frame.has_value() ? std::move(*frame) : wire::FrameCommands{};
  }

  // Replay: the renderer runs the whole frame when it samples content and
  // only its state records otherwise; every other replica applies the
  // multicast state records. A sampled frame is then rasterised and encoded
  // as the service does it (service_runtime_exec.cc) and decoded as the user
  // does. Returns the encoded content, empty when the frame is not sampled.
  Bytes replay_and_encode(std::size_t renderer,
                          const wire::FrameCommands& decoded,
                          std::vector<wire::FrameCommands>& decoded_state,
                          Totals& totals, LayerChecks& checks) {
    Replica& r = *replicas_[renderer];
    const bool sample =
        shape_.sample_every <= 1 ||
        r.content_counter++ % static_cast<std::uint64_t>(shape_.sample_every) ==
            0;
    for (std::size_t d = 0; d < replicas_.size(); ++d) {
      const wire::FrameCommands apply =
          d == renderer ? (sample ? decoded : state_only(decoded))
                        : std::move(decoded_state[d]);
      Replica& replica = *replicas_[d];
      totals.replay_us +=
          time_us([&] { wire::replay_frame(apply, *replica.backend); });
      wire::replay_frame(apply, *replica.twin);
    }
    if (!sample) return {};

    // Raster alone, on the twin.
    gles::GlContext& twin = r.twin->context();
    totals.raster_us += time_us([&] { twin.flush(); });
    // Reading the counters flushes, so the frame's share is the change since
    // the last read, after the previous sampled frame's flush.
    const gles::RenderStats& after = twin.stats();
    totals.fragments_shaded += static_cast<double>(
        after.fragments_shaded - r.raster_seen.fragments_shaded);
    totals.early_z_culled +=
        static_cast<double>(after.fragments_early_z_culled -
                            r.raster_seen.fragments_early_z_culled);
    totals.tiles_shaded += static_cast<double>(after.tiles_shaded -
                                               r.raster_seen.tiles_shaded);
    r.raster_seen = after;

    // Raster + encode in the service's one call.
    gles::GlContext& ctx = r.backend->context();
    Bytes content;
    totals.fused_us += time_us([&] {
      if (shape_.fused && ctx.raster_mode() == gles::RasterMode::kTileBinned) {
        content = core::encode_frame_fused(ctx, r.encoder);
      } else {
        content = r.encoder.encode(ctx.color_buffer());
      }
    });
    totals.content_bytes += static_cast<double>(content.size());
    const Image& rendered = ctx.color_buffer();
    checks.pixels_match = checks.pixels_match &&
                          same_pixels(rendered, local_frame_) &&
                          same_pixels(twin.color_buffer(), local_frame_);

    std::optional<Image> shown;
    totals.decode_us += time_us([&] { shown = r.decoder.decode(content); });
    if (shown.has_value()) {
      const double db = codec::psnr(rendered, *shown);
      checks.min_psnr_db = std::min(checks.min_psnr_db.value_or(db), db);
    } else {
      checks.decode_failed = true;
    }

    // The service's nominal-size scaling (service_runtime_exec.cc).
    const double area_ratio =
        static_cast<double>(shape_.nominal_width) * shape_.nominal_height /
        (static_cast<double>(shape_.render_width) * shape_.render_height);
    const double payload =
        std::max(0.0, static_cast<double>(content.size()) - 300.0);
    r.last_nominal_bytes = static_cast<std::uint32_t>(
        payload * std::pow(area_ratio, shape_.size_scale_exponent) + 300.0);
    return content;
  }

  ServiceShape shape_;
  double workload_pixels_ = 0.0;
  std::vector<FrameInput> inputs_;
  std::optional<wire::FrameCommands> recorded_;
  wire::CommandRecorder recorder_;
  wire::CommandRecorder hooked_recorder_;
  gles::DirectBackend genuine_;
  hooking::DynamicLinker linker_;
  std::unique_ptr<gles::GlesApi> hooked_api_;
  wire::CommandRecorder counted_recorder_;
  CountingApi counter_;
  std::unique_ptr<gles::DirectBackend> local_;
  Image local_frame_;
  std::vector<std::unique_ptr<apps::GameApp>> apps_;
  compress::CommandCache state_cache_;
  std::vector<compress::CommandCache> render_caches_;
  // Twins of the caches above, for the framed messages the net probe sends:
  // the protocol's builders encode and compress in one untimed call.
  compress::CommandCache framing_state_cache_;
  std::vector<compress::CommandCache> framing_render_caches_;
  compress::CacheStats framing_stats_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

// The workload's links and service GPUs, as the net probe rebuilds them.
struct LinkShape {
  double wifi_loss = 0.002;
  SimTime wifi_propagation = ms(0.4);
  bool bluetooth = false;  // second path, striped (kMultipath)
  double bt_loss = 0.005;
  net::GilbertElliottConfig burst;
  std::size_t fec_group = 0;
  std::size_t users = 1;
  std::vector<double> fillrate_pps;  // one per service device
  double frame_interval_s = 1.0 / 30.0;
  std::uint64_t seed = 1;
};

// Replays the workload's framed messages through ReliableEndpoints over
// Media shaped like its links, stepping the event loop by hand. User u issues
// frame i at (i + u / users) frame intervals. A device answers a render
// request once its GPU has run it: requests queue first come, first served
// and each takes workload pixels / fillrate, as device::GpuModel charges.
// Returns the transport's host microseconds per frame.
double probe_net(const LinkShape& link, std::vector<NetMsg>& msgs,
                 double frames, LayerValues& out) {
  EventLoop loop;
  Rng rng(link.seed);
  net::MediumConfig wifi_config;
  wifi_config.propagation = link.wifi_propagation;
  wifi_config.loss_rate = link.wifi_loss;
  net::Medium wifi(loop, wifi_config, rng.fork(), "wifi");
  net::MediumConfig bt_config;
  bt_config.propagation = ms(1.2);
  bt_config.loss_rate = link.bt_loss;
  net::Medium bt(loop, bt_config, rng.fork(), "bt");
  net::FaultPlanConfig fault_config;
  fault_config.seed = rng.next_u64();
  fault_config.burst = link.burst;
  net::FaultPlan faults(fault_config);
  if (link.burst.enabled) {
    wifi.set_fault_plan(&faults, 0);
    bt.set_fault_plan(&faults, 1);
  }

  // Each frame's result, by the requesting user's node and the sequence.
  std::map<std::pair<net::NodeId, std::uint64_t>, std::size_t> results;
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    if (msgs[k].kind != NetMsg::kResult) continue;
    const auto header = core::parse_frame_message(msgs[k].message);
    results[{user_node(msgs[k].user), header->header.sequence}] = k;
  }

  net::ReliableConfig transport;
  transport.fec_group_size = link.fec_group;
  constexpr net::NodeId kGroup = 0xff00;
  const std::size_t device_count = link.fillrate_pps.size();
  std::vector<std::unique_ptr<net::ReliableEndpoint>> users;
  std::vector<std::unique_ptr<net::ReliableEndpoint>> devices;
  std::vector<SimTime> gpu_free(device_count);
  double delivered = 0.0;
  const auto bind = [&](net::ReliableEndpoint& ep) {
    ep.bind(wifi, nullptr);
    if (link.bluetooth) {
      ep.bind(bt, nullptr);
      ep.set_path_weights({net::wifi_radio_config().bandwidth_bps,
                           net::bluetooth_radio_config().bandwidth_bps});
    }
  };
  for (std::size_t u = 0; u < link.users; ++u) {
    users.push_back(std::make_unique<net::ReliableEndpoint>(
        loop, user_node(u), transport));
    bind(*users.back());
    users.back()->set_handler(
        [&delivered](net::NodeId, net::NodeId, Bytes) { delivered += 1.0; });
  }
  std::vector<net::NodeId> members;
  for (std::size_t d = 0; d < device_count; ++d) {
    devices.push_back(std::make_unique<net::ReliableEndpoint>(
        loop, device_node(d), transport));
    bind(*devices.back());
    devices.back()->set_handler(
        [&, d](net::NodeId src, net::NodeId, Bytes message) {
          delivered += 1.0;
          if (core::peek_kind(message) != core::MsgKind::kRender) return;
          const auto request = core::peek_render_header(message);
          const auto it = results.find({src, request->sequence});
          if (it == results.end()) return;
          gpu_free[d] = std::max(gpu_free[d], loop.now()) +
                        seconds(request->workload_pixels / link.fillrate_pps[d]);
          loop.schedule_at(gpu_free[d], [&, d, src, k = it->second] {
            devices[d]->send(src, std::move(msgs[k].message));
          });
        });
    wifi.join_group(kGroup, device_node(d));
    if (link.bluetooth) bt.join_group(kGroup, device_node(d));
    members.push_back(device_node(d));
  }

  for (NetMsg& msg : msgs) {
    if (msg.kind == NetMsg::kResult) continue;
    const double at =
        (msg.frame + static_cast<double>(msg.user) / link.users) *
        link.frame_interval_s;
    loop.schedule_at(seconds(at), [&] {
      if (msg.kind == NetMsg::kStateMulticast) {
        users[msg.user]->send_multicast(kGroup, members,
                                        std::move(msg.message));
      } else {
        users[msg.user]->send(device_node(msg.device), std::move(msg.message));
      }
    });
  }

  double events = 0.0;
  double pending_sum = 0.0;
  const double wall_us = time_us([&] {
    while (loop.step()) {
      events += 1.0;
      pending_sum += static_cast<double>(loop.pending_events());
    }
  });

  net::ReliableStats stats;
  for (const auto* side : {&users, &devices}) {
    for (const auto& ep : *side) {
      const net::ReliableStats& s = ep->stats();
      stats.messages_sent += s.messages_sent;
      stats.chunks_sent += s.chunks_sent;
      stats.chunks_retransmitted += s.chunks_retransmitted;
      stats.fec_recovered_chunks += s.fec_recovered_chunks;
      stats.messages_abandoned += s.messages_abandoned;
    }
  }
  const double chunks = std::max(1.0, static_cast<double>(stats.chunks_sent));
  out["net.deliver_us_per_msg"] = wall_us / std::max(delivered, 1.0);
  out["net.msgs_per_frame"] = delivered / std::max(frames, 1.0);
  out["net.chunks_per_msg"] =
      static_cast<double>(stats.chunks_sent) /
      std::max(1.0, static_cast<double>(stats.messages_sent));
  out["net.retransmit_ratio"] =
      static_cast<double>(stats.chunks_retransmitted) / chunks;
  out["net.fec_recovered_ratio"] =
      static_cast<double>(stats.fec_recovered_chunks) / chunks;
  out["net.abandoned_msgs"] = static_cast<double>(stats.messages_abandoned);
  out["runtime.events_per_msg"] = events / std::max(delivered, 1.0);

  // Event-loop cost on its own: self-rescheduling no-op events on a queue as
  // deep as the transport's average, counted through EventLoop::step.
  const auto depth = static_cast<std::size_t>(
      std::max(1.0, std::round(pending_sum / std::max(events, 1.0))));
  EventLoop bare;
  Rng delays(link.seed ^ 0xe7e7ull);
  std::function<void()> tick = [&] {
    bare.schedule_after(
        us(1 + static_cast<std::int64_t>(delays.next_below(2000))), tick);
  };
  for (std::size_t k = 0; k < depth; ++k) {
    bare.schedule_after(us(static_cast<std::int64_t>(k)), tick);
  }
  constexpr int kSteps = 200000;
  const double loop_us = time_us([&] {
    for (int k = 0; k < kSteps; ++k) bare.step();
  });
  out["runtime.us_per_event"] = loop_us / kSteps;
  return wall_us / std::max(frames, 1.0);
}

LayerValues finish(const Totals& t, double resident_bytes) {
  const double f = std::max(t.frames, 1.0);
  LayerValues v;
  v["hooking.dispatch_us_per_frame"] = (t.hooked_us - t.record_us) / f;
  v["hooking.calls_per_frame"] = t.calls / f;
  v["wire.record_us_per_frame"] = t.record_us / f;
  v["wire.records_per_frame"] = t.records / f;
  v["wire.raw_kb_per_frame"] = t.raw_bytes / 1000.0 / f;
  v["wire.replay_us_per_frame"] = t.replay_us / f;
  v["compress.cache_encode_us_per_frame"] = t.cache_encode_us / f;
  v["compress.cache_decode_us_per_frame"] = t.cache_decode_us / f;
  const double lookups =
      static_cast<double>(t.cache.hits + t.cache.shared_hits + t.cache.misses);
  v["compress.cache_hit_rate"] = t.cache.hit_rate();
  v["compress.cache_lookups_per_frame"] = lookups / f;
  v["compress.lz4_us_per_frame"] = t.lz4_us / f;
  v["compress.unlz4_us_per_frame"] = t.unlz4_us / f;
  v["compress.lz4_ratio"] = t.packed_bytes / std::max(t.lz4_bytes, 1.0);
  v["compress.cache_resident_mb"] = resident_bytes / 1e6;
  v["gles.raster_us_per_frame"] = t.raster_us / f;
  v["gles.fragments_shaded_per_frame"] = t.fragments_shaded / f;
  v["gles.early_z_cull_ratio"] =
      t.fragments_shaded > 0.0 ? t.early_z_culled / t.fragments_shaded : 0.0;
  v["gles.tiles_shaded_per_frame"] = t.tiles_shaded / f;
  // The service rasterises and encodes in one call; encode is that call
  // less the twin's raster of the same frame.
  v["codec.encode_us_per_frame"] = (t.fused_us - t.raster_us) / f;
  v["codec.decode_us_per_frame"] = t.decode_us / f;
  v["codec.kb_per_frame"] = t.content_bytes / 1000.0 / f;
  return v;
}

// Sum of the per-frame layer costs, the transport's included.
double layer_sum(const LayerValues& v, double net_us_per_frame) {
  double sum = net_us_per_frame;
  for (const char* name :
       {"hooking.dispatch_us_per_frame", "wire.record_us_per_frame",
        "wire.replay_us_per_frame", "compress.cache_encode_us_per_frame",
        "compress.cache_decode_us_per_frame", "compress.lz4_us_per_frame",
        "compress.unlz4_us_per_frame", "gles.raster_us_per_frame",
        "codec.encode_us_per_frame", "codec.decode_us_per_frame"}) {
    sum += v.at(name);
  }
  return sum;
}

LayerReport probe_session(Workload workload, std::uint64_t seed,
                          double fps) {
  const sim::SessionConfig config = session_config(workload, seed, 0.0);
  const int frames = workload == Workload::kOffloadPixels ? 120 : 480;
  ServiceShape shape;
  shape.nominal_width = config.service.nominal_width;
  shape.nominal_height = config.service.nominal_height;
  shape.render_width = config.service.render_width;
  shape.render_height = config.service.render_height;
  shape.sample_every = config.service.content_sample_every;
  shape.size_scale_exponent = config.service.size_scale_exponent;
  shape.tile_binned = config.service.tile_binned_raster;
  shape.fused = config.service.fused_tile_encode;
  shape.codec = config.service.codec;

  Rng rng(config.seed);
  const Rng app_rng = rng.fork();
  const double cpu_frame_s =
      config.workload.cpu_frame_seconds / config.user_device.cpu_perf_index;
  UserPipeline pipeline(
      config.workload, config.gbooster.nominal_width,
      config.gbooster.nominal_height, shape, config.service_devices.size(),
      app_rng, make_inputs(config.workload, cpu_frame_s, fps, frames, rng));

  LayerReport report;
  Totals totals;
  std::vector<NetMsg> msgs;
  for (int i = 0; i < frames; ++i) {
    pipeline.step(i, 0, totals, report.checks, msgs);
  }
  report.values = finish(totals, pipeline.cache_resident_bytes());

  LinkShape link;
  link.wifi_loss = config.wifi_loss_rate;
  link.bluetooth = config.switcher.policy == core::SwitchPolicy::kMultipath;
  link.bt_loss = config.bt_loss_rate;
  link.burst = config.fault_burst;
  link.fec_group = config.transport.fec_group_size;
  for (const device::DeviceProfile& device : config.service_devices) {
    link.fillrate_pps.push_back(device.gpu.fillrate_pps);
  }
  link.frame_interval_s = 1.0 / fps;
  link.seed = config.fault_seed;
  const double net_us = probe_net(link, msgs, totals.frames, report.values);
  report.layer_sum_us_per_frame = layer_sum(report.values, net_us);
  return report;
}

// `fps` is the soak's displayed frames per slot per sim second; every probed
// slot issues at that rate, so the probe carries the soak's aggregate load.
LayerReport probe_fleet(std::uint64_t seed, double fps) {
  const sim::SoakPlan plan = soak_plan(seed, 0.0);
  const std::vector<apps::WorkloadSpec> catalog = {
      apps::g1_gta_san_andreas(), apps::g2_modern_combat(),
      apps::g3_star_wars_kotor(), apps::g4_final_fantasy(),
      apps::g5_candy_crush(),     apps::g6_cut_the_rope()};
  constexpr int kFramesPerSlot = 150;
  const std::size_t devices = plan.devices.size();
  const ServiceShape shape;  // analytic: render_width == 0

  // One session per slot, each running an app drawn from the soak's catalog
  // on the soak's canvas, its frames interleaved with the other slots'.
  Rng rng(plan.seed);
  std::vector<std::unique_ptr<UserPipeline>> slots;
  for (std::size_t s = 0; s < plan.churn.slots; ++s) {
    const apps::WorkloadSpec& spec = catalog[rng.next_below(catalog.size())];
    const device::DeviceProfile phone =
        s % 2 == 0 ? device::lg_g5() : device::nexus5();
    const Rng app_rng = rng.fork();
    slots.push_back(std::make_unique<UserPipeline>(
        spec, plan.churn.app_width, plan.churn.app_height, shape, 1, app_rng,
        make_inputs(spec, spec.cpu_frame_seconds / phone.cpu_perf_index, fps,
                    kFramesPerSlot, rng.fork())));
  }

  LayerReport report;
  Totals totals;
  std::vector<NetMsg> msgs;
  for (int i = 0; i < kFramesPerSlot; ++i) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      std::vector<NetMsg> slot_msgs;
      slots[s]->step(i, s, totals, report.checks, slot_msgs);
      for (NetMsg& msg : slot_msgs) {
        msg.device = s % devices;
        msgs.push_back(std::move(msg));
      }
    }
  }
  double resident = 0.0;
  for (const auto& slot : slots) resident += slot->cache_resident_bytes();
  report.values = finish(totals, resident);

  LinkShape link;
  link.wifi_loss = 0.002;
  link.wifi_propagation = net::MediumConfig{}.propagation;
  link.burst = plan.faults.burst;
  link.users = plan.churn.slots;
  for (const device::DeviceProfile& device : plan.devices) {
    link.fillrate_pps.push_back(device.gpu.fillrate_pps);
  }
  link.frame_interval_s = 1.0 / fps;
  link.seed = plan.seed ^ 0x50a4c4a05ull;
  const double net_us = probe_net(link, msgs, totals.frames, report.values);
  report.layer_sum_us_per_frame = layer_sum(report.values, net_us);
  return report;
}

}  // namespace

LayerReport run_layer_probes(Workload workload, std::uint64_t seed,
                             double fps_per_user) {
  LayerReport report = is_session(workload)
                           ? probe_session(workload, seed, fps_per_user)
                           : probe_fleet(seed, fps_per_user);
  // The codec's own quality floor for streams below quality 75
  // (tests/test_codec.cc); only checked where frames were encoded.
  constexpr double kMinPsnrDb = 22.0;
  LayerChecks& checks = report.checks;
  checks.codec_quality =
      !checks.decode_failed &&
      checks.min_psnr_db.value_or(kMinPsnrDb) >= kMinPsnrDb;
  return report;
}

}  // namespace perfbench
