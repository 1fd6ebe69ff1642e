// Wire-format pins and replay hardening for the GLES command surface.
//
// The golden test fixes the exact bytes the recorder emits for the six game
// workloads plus a frame that issues every opcode, and the exact pixels a
// replica renders from them: any change to encode, decode or the opcode
// numbering shows up as a different hash.
//
// The hardening tests replay crafted and table-driven mutated records: a
// malformed record must fail with gb::Error (or be absorbed as a GL error),
// never crash, over-read, or size an allocation from an unchecked count.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "apps/game_app.h"
#include "apps/workload.h"
#include "common/rng.h"
#include "gles/direct_backend.h"
#include "wire/arg_codec.h"
#include "wire/decoder.h"
#include "wire/protocol.h"
#include "wire/recorder.h"
#include "test_support.h"

namespace gb::wire {
namespace {

using namespace gles;

using test_support::AddressSpaceCap;
using test_support::Fnv1a;

constexpr int kSurface = 48;

constexpr std::string_view kEveryCallVs = R"(
attribute vec4 a_position;
attribute vec2 a_uv;
uniform mat4 u_mvp;
uniform vec2 u_offset;
varying vec2 v_uv;
void main() {
  gl_Position = u_mvp * a_position + vec4(u_offset, 0.0, 0.0);
  v_uv = a_uv;
}
)";

constexpr std::string_view kEveryCallFs = R"(
precision mediump float;
varying vec2 v_uv;
uniform sampler2D u_tex;
uniform vec4 u_color;
uniform vec3 u_tint;
uniform float u_scale;
void main() {
  gl_FragColor = texture2D(u_tex, v_uv) * u_color + vec4(u_tint, 0.0) * u_scale;
}
)";

// One frame that reaches every entry point of the GLES surface, so the
// recorded stream holds every opcode: both vertex-pointer forms (the client
// one deferred and bracketed by an unbind/rebind), both draw-elements forms,
// deletes, sub-uploads, queries, flush/finish and the swap.
void issue_every_call(GlesApi& gl) {
  EXPECT_EQ(gl.glGetError(), GL_NO_ERROR);
  gl.glViewport(0, 0, kSurface, kSurface);
  gl.glScissor(2, 3, kSurface - 4, kSurface - 6);
  gl.glEnable(GL_SCISSOR_TEST);
  gl.glEnable(GL_BLEND);
  gl.glBlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
  gl.glDisable(GL_BLEND);
  gl.glEnable(GL_DEPTH_TEST);
  gl.glDepthFunc(GL_LEQUAL);
  gl.glCullFace(GL_BACK);
  gl.glFrontFace(GL_CCW);
  gl.glClearColor(0.1f, 0.2f, 0.3f, 1.0f);
  gl.glClear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);

  const GLuint vs = gl.glCreateShader(GL_VERTEX_SHADER);
  gl.glShaderSource(vs, kEveryCallVs);
  gl.glCompileShader(vs);
  ASSERT_EQ(gl.glGetShaderiv(vs, GL_COMPILE_STATUS), 1)
      << gl.glGetShaderInfoLog(vs);
  const GLuint fs = gl.glCreateShader(GL_FRAGMENT_SHADER);
  gl.glShaderSource(fs, kEveryCallFs);
  gl.glCompileShader(fs);
  ASSERT_EQ(gl.glGetShaderiv(fs, GL_COMPILE_STATUS), 1)
      << gl.glGetShaderInfoLog(fs);
  const GLuint prog = gl.glCreateProgram();
  gl.glAttachShader(prog, vs);
  gl.glAttachShader(prog, fs);
  gl.glBindAttribLocation(prog, 0, "a_position");
  gl.glLinkProgram(prog);
  ASSERT_EQ(gl.glGetProgramiv(prog, GL_LINK_STATUS), 1);
  gl.glUseProgram(prog);

  const GLuint scrap_shader = gl.glCreateShader(GL_VERTEX_SHADER);
  gl.glDeleteShader(scrap_shader);
  const GLuint scrap_program = gl.glCreateProgram();
  gl.glDeleteProgram(scrap_program);

  static const float kMvp[16] = {0.9f, 0, 0, 0, 0, 0.8f, 0, 0,
                                 0,    0, 1, 0, 0.05f, -0.05f, 0, 1};
  gl.glUniformMatrix4fv(gl.glGetUniformLocation(prog, "u_mvp"), 1, false,
                        kMvp);
  gl.glUniform2f(gl.glGetUniformLocation(prog, "u_offset"), 0.02f, -0.01f);
  gl.glUniform4f(gl.glGetUniformLocation(prog, "u_color"), 0.9f, 0.8f, 0.7f,
                 0.6f);
  gl.glUniform3f(gl.glGetUniformLocation(prog, "u_tint"), 0.2f, 0.1f, 0.4f);
  gl.glUniform1f(gl.glGetUniformLocation(prog, "u_scale"), 0.5f);
  gl.glUniform1i(gl.glGetUniformLocation(prog, "u_tex"), 0);

  GLuint textures[2] = {};
  gl.glGenTextures(2, textures);
  gl.glActiveTexture(GL_TEXTURE0);
  gl.glBindTexture(GL_TEXTURE_2D, textures[0]);
  gl.glTexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  gl.glTexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  std::vector<std::uint8_t> texels(4 * 4 * 4);
  for (std::size_t i = 0; i < texels.size(); ++i) {
    texels[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  gl.glTexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 4, 4, 0, GL_RGBA,
                  GL_UNSIGNED_BYTE, texels.data());
  const std::uint8_t patch[2 * 2 * 4] = {255, 0, 0, 255, 0, 255, 0, 255,
                                         0, 0, 255, 255, 255, 255, 0, 255};
  gl.glTexSubImage2D(GL_TEXTURE_2D, 0, 1, 1, 2, 2, GL_RGBA, GL_UNSIGNED_BYTE,
                     patch);
  gl.glDeleteTextures(1, &textures[1]);

  GLuint buffers[3] = {};
  gl.glGenBuffers(3, buffers);
  static const float kPositions[] = {-1, -1, 0.2f, 1, -1, 0.2f,
                                     1,  1,  0.2f, -1, 1, 0.2f};
  gl.glBindBuffer(GL_ARRAY_BUFFER, buffers[0]);
  static const float kZeros[12] = {};
  gl.glBufferData(GL_ARRAY_BUFFER, sizeof(kZeros), kZeros, GL_STATIC_DRAW);
  gl.glBufferSubData(GL_ARRAY_BUFFER, 0, sizeof(kPositions), kPositions);
  const auto a_position =
      static_cast<GLuint>(gl.glGetAttribLocation(prog, "a_position"));
  const auto a_uv = static_cast<GLuint>(gl.glGetAttribLocation(prog, "a_uv"));
  gl.glVertexAttribPointer(a_position, 3, GL_FLOAT, false, 0, nullptr);
  gl.glEnableVertexAttribArray(a_position);

  static const float kUvs[] = {0, 0, 1, 0, 1, 1, 0, 1};
  gl.glBindBuffer(GL_ARRAY_BUFFER, 0);
  gl.glVertexAttribPointer(a_uv, 2, GL_FLOAT, false, 0, kUvs);
  gl.glEnableVertexAttribArray(a_uv);
  gl.glBindBuffer(GL_ARRAY_BUFFER, buffers[0]);

  gl.glVertexAttrib4f(5, 0.5f, 0.25f, 0.125f, 1.0f);
  gl.glEnableVertexAttribArray(5);
  gl.glDisableVertexAttribArray(5);

  gl.glDrawArrays(GL_TRIANGLES, 0, 3);
  static const std::uint16_t kIndices[] = {0, 2, 3};
  gl.glDrawElements(GL_TRIANGLES, 3, GL_UNSIGNED_SHORT, kIndices);
  static const std::uint8_t kBufferIndices[] = {0, 1, 2, 0, 2, 3};
  gl.glBindBuffer(GL_ELEMENT_ARRAY_BUFFER, buffers[1]);
  gl.glBufferData(GL_ELEMENT_ARRAY_BUFFER, sizeof(kBufferIndices),
                  kBufferIndices, GL_STATIC_DRAW);
  gl.glDepthFunc(GL_ALWAYS);
  gl.glDrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_BYTE, nullptr);
  gl.glDeleteBuffers(1, &buffers[2]);
  gl.glFlush();
  gl.glFinish();
  gl.eglSwapBuffers();
}

// Records `frames` frames of `spec` (setup included in the first), with a
// touch burst on odd frames and a scene change before frame 2.
std::vector<FrameCommands> record_app(const apps::WorkloadSpec& spec,
                                      int frames) {
  std::vector<FrameCommands> out;
  CommandRecorder recorder(kSurface, kSurface, [&out](FrameCommands frame) {
    out.push_back(std::move(frame));
    return true;
  });
  apps::GameApp app(spec, recorder, kSurface, kSurface, Rng(7));
  app.setup();
  for (int i = 0; i < frames; ++i) {
    if (i == 2) app.trigger_scene_change();
    app.render_frame(i / 30.0, i % 2 == 1);
  }
  return out;
}

struct Golden {
  std::uint64_t record_hash = 0;
  std::uint64_t pixel_hash = 0;
  std::set<CmdOp> ops;
};

Golden hash_streams(const std::vector<std::vector<FrameCommands>>& streams) {
  Fnv1a records;
  Fnv1a pixels;
  Golden golden;
  for (const auto& frames : streams) {
    DirectBackend replica(kSurface, kSurface, [&pixels](const Image& img) {
      pixels.add(img.bytes());
    });
    for (const FrameCommands& frame : frames) {
      records.add_u64(frame.sequence);
      records.add_u64(frame.records.size());
      for (const CommandRecord& record : frame.records) {
        golden.ops.insert(record.op());
        records.add_u64(record.bytes.size());
        records.add(record.bytes);
      }
      replay_frame(frame, replica);
    }
  }
  golden.record_hash = records.value();
  golden.pixel_hash = pixels.value();
  return golden;
}

TEST(WireGolden, RecordBytesAndReplayPixelsArePinned) {
  std::vector<std::vector<FrameCommands>> streams;
  for (const apps::WorkloadSpec& spec : apps::all_games()) {
    streams.push_back(record_app(spec, 4));
  }
  std::vector<FrameCommands> every;
  CommandRecorder recorder(kSurface, kSurface, [&every](FrameCommands frame) {
    every.push_back(std::move(frame));
    return true;
  });
  issue_every_call(recorder);
  ASSERT_EQ(every.size(), 1u);
  streams.push_back(every);

  const Golden golden = hash_streams(streams);
  // Every opcode from kClearColor (1) to kSwapBuffers (47) is on the wire.
  EXPECT_EQ(golden.ops.size(), 47u);
  EXPECT_EQ(static_cast<int>(*golden.ops.begin()), 1);
  EXPECT_EQ(static_cast<int>(*golden.ops.rbegin()), 47);

  EXPECT_EQ(golden.record_hash, 0xddebfc6bf628f46aull);
  EXPECT_EQ(golden.pixel_hash, 0x0423e1b89e1a7936ull);
}

TEST(WireGolden, EveryCallFrameReplaysLikeDirectRendering) {
  std::vector<std::uint8_t> direct_pixels;
  DirectBackend direct(kSurface, kSurface, [&](const Image& img) {
    direct_pixels.assign(img.bytes().begin(), img.bytes().end());
  });
  issue_every_call(direct);

  std::vector<FrameCommands> frames;
  CommandRecorder recorder(kSurface, kSurface, [&frames](FrameCommands frame) {
    frames.push_back(std::move(frame));
    return true;
  });
  issue_every_call(recorder);
  std::vector<std::uint8_t> replayed_pixels;
  DirectBackend replica(kSurface, kSurface, [&](const Image& img) {
    replayed_pixels.assign(img.bytes().begin(), img.bytes().end());
  });
  replay_frame(frames.at(0), replica);
  EXPECT_FALSE(direct_pixels.empty());
  EXPECT_EQ(replayed_pixels, direct_pixels);
}

// A replica with a linked program current, buffer-sourced attributes, an
// element buffer and a bound texture, so mutated draws reach the rasterizer.
// Both buffer targets stay bound: a buffer-form record replayed with none
// bound still reads its offset as a client address, a known gap that needs
// an offset-explicit replay path (DESIGN.md §17).
void link_program_state(GlesApi& gl) {
  const GLuint vs = gl.glCreateShader(GL_VERTEX_SHADER);
  gl.glShaderSource(vs, kEveryCallVs);
  gl.glCompileShader(vs);
  const GLuint fs = gl.glCreateShader(GL_FRAGMENT_SHADER);
  gl.glShaderSource(fs, kEveryCallFs);
  gl.glCompileShader(fs);
  const GLuint prog = gl.glCreateProgram();
  gl.glAttachShader(prog, vs);
  gl.glAttachShader(prog, fs);
  gl.glLinkProgram(prog);
  ASSERT_EQ(gl.glGetProgramiv(prog, GL_LINK_STATUS), 1);
  gl.glUseProgram(prog);
  GLuint tex = 0;
  gl.glGenTextures(1, &tex);
  gl.glBindTexture(GL_TEXTURE_2D, tex);
  const std::uint8_t texels[2 * 2 * 4] = {9, 8, 7, 255, 6, 5, 4, 255,
                                          3, 2, 1, 255, 0, 9, 8, 255};
  gl.glTexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 2, 2, 0, GL_RGBA,
                  GL_UNSIGNED_BYTE, texels);
  GLuint buffers[2] = {};
  gl.glGenBuffers(2, buffers);
  const float verts[] = {-1, -1, 0, 1, -1, 0, 1, 1, 0, -1, 1, 0};
  gl.glBindBuffer(GL_ARRAY_BUFFER, buffers[0]);
  gl.glBufferData(GL_ARRAY_BUFFER, sizeof(verts), verts, GL_STATIC_DRAW);
  for (const char* name : {"a_position", "a_uv"}) {
    const auto loc = static_cast<GLuint>(gl.glGetAttribLocation(prog, name));
    gl.glVertexAttribPointer(loc, 3, GL_FLOAT, false, 0, nullptr);
    gl.glEnableVertexAttribArray(loc);
  }
  const std::uint16_t indices[] = {0, 1, 2, 0, 2, 3};
  gl.glBindBuffer(GL_ELEMENT_ARRAY_BUFFER, buffers[1]);
  gl.glBufferData(GL_ELEMENT_ARRAY_BUFFER, sizeof(indices), indices,
                  GL_STATIC_DRAW);
}

// --- crafted records ------------------------------------------------------------

CommandRecord crafted(CmdOp op, const std::function<void(ByteWriter&)>& body) {
  ByteWriter w;
  w.varint(static_cast<std::uint64_t>(op));
  body(w);
  // Exact capacity, so reading past the record is a heap overflow.
  const Bytes& bytes = w.bytes();
  return CommandRecord{Bytes(bytes.begin(), bytes.end())};
}

TEST(WireHardening, GenNamesCountBeyondRecordIsRejectedBeforeAllocating) {
  for (const CmdOp op : {CmdOp::kGenBuffers, CmdOp::kGenTextures}) {
    DirectBackend replica(8, 8, {});
    const CommandRecord record =
        crafted(op, [](ByteWriter& w) { w.varint(INT32_MAX); });
    AddressSpaceCap cap;
    EXPECT_THROW(replay_record(record, replica), Error);
  }
}

TEST(WireHardening, DeleteBuffersCountBeyondRecordIsRejectedBeforeAllocating) {
  DirectBackend replica(8, 8, {});
  const CommandRecord record = crafted(CmdOp::kDeleteBuffers, [](ByteWriter& w) {
    w.varint(INT32_MAX);
    w.varint(1);
  });
  AddressSpaceCap cap;
  EXPECT_THROW(replay_record(record, replica), Error);
}

TEST(WireHardening, DeleteTexturesCountBeyondRecordIsRejectedBeforeAllocating) {
  DirectBackend replica(8, 8, {});
  const CommandRecord record =
      crafted(CmdOp::kDeleteTextures, [](ByteWriter& w) {
        w.varint(INT32_MAX);
        w.varint(1);
      });
  AddressSpaceCap cap;
  EXPECT_THROW(replay_record(record, replica), Error);
}

TEST(WireHardening, DrawArraysCountOverCapIsRejected) {
  DirectBackend replica(8, 8, {});
  const CommandRecord record = crafted(CmdOp::kDrawArrays, [](ByteWriter& w) {
    w.u32(GL_TRIANGLES);
    w.i32(0);
    w.i32(INT32_MAX);
  });
  AddressSpaceCap cap;
  EXPECT_THROW(replay_record(record, replica), Error);
}

TEST(WireHardening, DrawArraysValidatesBeforeBuildingIndices) {
  // No program is current, so the draw is an INVALID_OPERATION no-op; it
  // must not first build a count-long index list.
  GlContext context(8, 8);
  {
    AddressSpaceCap cap;
    context.draw_arrays(GL_TRIANGLES, 0, INT32_MAX);
  }
  EXPECT_EQ(context.get_error(), GL_INVALID_OPERATION);
}

TEST(WireHardening, InlineIndicesShorterThanCountAreRejected) {
  // 64 GL_UNSIGNED_INT indices need 256 bytes; the record ships 4.
  DirectBackend replica(8, 8, {});
  const CommandRecord record =
      crafted(CmdOp::kDrawElementsClient, [](ByteWriter& w) {
        w.u32(GL_TRIANGLES);
        w.i32(64);
        w.u32(GL_UNSIGNED_INT);
        w.blob(std::vector<std::uint8_t>{0, 0, 0, 0});
      });
  EXPECT_THROW(replay_record(record, replica), Error);
}

TEST(WireHardening, TexelsShorterThanTextureSizeAreRejected) {
  DirectBackend replica(8, 8, {});
  replay_record(crafted(CmdOp::kBindTexture,
                        [](ByteWriter& w) {
                          w.u32(GL_TEXTURE_2D);
                          w.varint(1);
                        }),
                replica);
  const CommandRecord record = crafted(CmdOp::kTexImage2D, [](ByteWriter& w) {
    w.u32(GL_TEXTURE_2D);
    w.i32(0);
    w.u32(GL_RGBA);
    w.i32(64);
    w.i32(64);
    w.u32(GL_RGBA);
    w.u32(GL_UNSIGNED_BYTE);
    w.blob(std::vector<std::uint8_t>(16, 7));
  });
  EXPECT_THROW(replay_record(record, replica), Error);
}

TEST(WireHardening, ElementBufferOffsetNearWrapIsInvalidOperation) {
  // offset + count * 2 wraps past zero; the range check must not be fooled
  // into reading (and drawing) from before the element buffer.
  DirectBackend replica(8, 8, {});
  link_program_state(replica);
  ASSERT_EQ(replica.glGetError(), GL_NO_ERROR);
  const CommandRecord record =
      crafted(CmdOp::kDrawElementsBuffer, [](ByteWriter& w) {
        w.u32(GL_TRIANGLES);
        w.i32(3);
        w.u32(GL_UNSIGNED_SHORT);
        w.varint(~std::uint64_t{0} - 3);
      });
  replay_record(record, replica);
  EXPECT_EQ(replica.glGetError(), GL_INVALID_OPERATION);
}

TEST(WireHardening, DrawFarFromIndexZeroDoesNotSizeTheVertexCacheByIndex) {
  // Three vertices whose indices run past INT32_MAX: the index list must
  // not overflow, and the per-index vertex cache must span the indices
  // drawn, not [0, max index].
  DirectBackend replica(8, 8, {});
  link_program_state(replica);
  const CommandRecord record = crafted(CmdOp::kDrawArrays, [](ByteWriter& w) {
    w.u32(GL_TRIANGLES);
    w.i32(INT32_MAX - 1);
    w.i32(3);
  });
  AddressSpaceCap cap;
  replay_record(record, replica);
  EXPECT_EQ(replica.glGetError(), GL_NO_ERROR);
}

TEST(WireHardening, ShortClientAttribBlobBoundsTheDraw) {
  // A 12-byte client-memory attribute (one vec3) feeding a 300-vertex draw:
  // vertices past the staged blob read the generic value, not the heap
  // beyond it.
  DirectBackend replica(8, 8, {});
  link_program_state(replica);
  FrameCommands frame;
  frame.records.push_back(crafted(CmdOp::kBindBuffer, [](ByteWriter& w) {
    w.u32(GL_ARRAY_BUFFER);
    w.varint(0);
  }));
  for (const std::uint64_t index : {0, 1}) {
    frame.records.push_back(
        crafted(CmdOp::kVertexAttribPointerClient, [index](ByteWriter& w) {
          w.varint(index);
          w.i32(3);
          w.u32(GL_FLOAT);
          w.u8(0);
          w.i32(0);
          w.blob(std::vector<std::uint8_t>(12, 0x3f));
        }));
  }
  frame.records.push_back(crafted(CmdOp::kDrawArrays, [](ByteWriter& w) {
    w.u32(GL_TRIANGLES);
    w.i32(0);
    w.i32(300);
  }));
  replay_frame(frame, replica);
  EXPECT_EQ(replica.glGetError(), GL_NO_ERROR);
  EXPECT_EQ(replica.context().attrib_state(0).client_bytes, 12u);
}

// --- table-driven structural fuzz ------------------------------------------------

// Byte span of one serialized value, found by walking the record with its
// opcode's table kinds.
struct Field {
  std::size_t begin = 0;
  std::size_t end = 0;
  arg::Kind kind = arg::u8;
};

std::vector<Field> fields_of(const Bytes& bytes) {
  ByteReader r(bytes);
  const OpSpec& spec = op_spec(static_cast<CmdOp>(r.varint()));
  std::vector<Field> fields;
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < spec.arity; ++i) {
    Field field{r.position(), 0, spec.kinds[i]};
    switch (field.kind) {
      case arg::u8:
        r.u8();
        break;
      case arg::u32:
      case arg::i32:
      case arg::f32:
      case arg::len:
        r.u32();
        break;
      case arg::varint:
        r.varint();
        break;
      case arg::count:
        count = r.varint();
        break;
      case arg::names:
        for (std::uint64_t n = 0; n < count; ++n) r.varint();
        break;
      case arg::str:
      case arg::blob:
        r.blob();
        break;
      case arg::mat4:
        r.raw(64);
        break;
    }
    field.end = r.position();
    fields.push_back(field);
  }
  // The table's layout accounts for every byte the recorder wrote.
  EXPECT_TRUE(r.done()) << "opcode " << static_cast<int>(bytes[0]);
  return fields;
}

Bytes varint_bytes(std::uint64_t v) {
  ByteWriter w;
  w.varint(v);
  return w.take();
}

Bytes u32_bytes(std::uint32_t v) {
  ByteWriter w;
  w.u32(v);
  return w.take();
}

// Edge values for one field: boundaries of its kind and of the opcode's cap.
std::vector<Bytes> perturbations(const Bytes& bytes, const Field& field,
                                 std::uint32_t cap) {
  std::vector<Bytes> out;
  switch (field.kind) {
    case arg::u8:
      return {{0}, {1}, {0xff}};
    case arg::u32:
    case arg::i32:
    case arg::f32:
    case arg::len:
      for (const std::uint32_t v :
           {0u, 1u, cap, cap + 1, 0x7fffffffu, 0x80000000u, 0xffffffffu,
            0x7fc00000u}) {
        out.push_back(u32_bytes(v));
      }
      return out;
    case arg::varint:
    case arg::count:
      for (const std::uint64_t v :
           {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{cap},
            std::uint64_t{cap} + 1, std::uint64_t{0xffffffff},
            std::uint64_t{1} << 32, std::uint64_t{1} << 63,
            ~std::uint64_t{0}}) {
        out.push_back(varint_bytes(v));
      }
      out.push_back(Bytes(11, 0x80));  // overlong varint
      return out;
    case arg::names:
      return {{}, Bytes(field.end - field.begin, 0x7f)};
    case arg::str:
    case arg::blob: {
      // Keep the payload, lie about its length.
      ByteReader r(std::span<const std::uint8_t>(bytes).subspan(field.begin));
      const std::uint64_t length = r.varint();
      const Bytes payload(bytes.begin() + static_cast<std::ptrdiff_t>(
                                              field.begin + r.position()),
                          bytes.begin() + static_cast<std::ptrdiff_t>(field.end));
      for (const std::uint64_t lie :
           {std::uint64_t{0}, length + 1, length == 0 ? 0 : length - 1,
            std::uint64_t{1} << 31, ~std::uint64_t{0}}) {
        Bytes field_bytes = varint_bytes(lie);
        field_bytes.insert(field_bytes.end(), payload.begin(), payload.end());
        out.push_back(std::move(field_bytes));
      }
      return out;
    }
    case arg::mat4:
      return {Bytes(64, 0xff), Bytes(64, 0)};
  }
  return out;
}

// Every mutation of one valid record: each truncation, each field replaced
// by each of its edge values, and the payload re-labelled with every opcode.
std::vector<Bytes> mutations(const Bytes& bytes) {
  std::vector<Bytes> out;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    out.emplace_back(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n));
  }
  const std::uint32_t cap = op_spec(static_cast<CmdOp>(bytes[0])).cap;
  for (const Field& field : fields_of(bytes)) {
    for (const Bytes& value : perturbations(bytes, field, cap)) {
      Bytes mutated(bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(field.begin));
      mutated.insert(mutated.end(), value.begin(), value.end());
      mutated.insert(mutated.end(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(field.end),
                     bytes.end());
      out.push_back(std::move(mutated));
    }
  }
  for (std::size_t code = 0; code < kOpSpecs.size(); ++code) {
    if (!kOpSpecs[code].known && code != 0 && code != kOpSpecs.size() - 1) {
      continue;  // every unknown opcode takes the same rejection path
    }
    Bytes relabelled = bytes;
    relabelled[0] = static_cast<std::uint8_t>(code);
    out.push_back(std::move(relabelled));
  }
  return out;
}

void replay_one(const Bytes& bytes, GlesApi& target) {
  FrameCommands frame;
  frame.records.push_back(CommandRecord{Bytes(bytes.begin(), bytes.end())});
  try {
    replay_frame(frame, target);
  } catch (const Error&) {
    // Rejected as malformed: the only failure a replica may report.
  }
}

TEST(WireFuzz, EveryOpcodeSurvivesTruncationAndFieldPerturbation) {
  std::vector<FrameCommands> frames;
  CommandRecorder recorder(kSurface, kSurface, [&frames](FrameCommands frame) {
    frames.push_back(std::move(frame));
    return true;
  });
  issue_every_call(recorder);
  ASSERT_EQ(frames.size(), 1u);

  // One seed record per opcode, straight from the recorder.
  std::map<CmdOp, Bytes> seeds;
  for (const CommandRecord& record : frames[0].records) {
    seeds.emplace(record.op(), record.bytes);
  }
  std::size_t known = 0;
  for (const OpSpec& spec : kOpSpecs) known += spec.known ? 1 : 0;
  ASSERT_EQ(seeds.size(), known);

  // The linked replica's state, recorded once and replayed per case.
  std::vector<FrameCommands> setup;
  CommandRecorder setup_recorder(8, 8, [&setup](FrameCommands frame) {
    setup.push_back(std::move(frame));
    return true;
  });
  link_program_state(setup_recorder);
  setup_recorder.eglSwapBuffers();

  std::size_t cases = 0;
  for (const auto& [op, seed] : seeds) {
    for (const Bytes& mutated : mutations(seed)) {
      SCOPED_TRACE(testing::Message() << "opcode " << static_cast<int>(op)
                                      << ", case " << cases);
      DirectBackend fresh(8, 8, {});
      replay_one(mutated, fresh);
      DirectBackend linked(8, 8, {});
      replay_frame(setup.at(0), linked);
      replay_one(mutated, linked);
      ++cases;
    }
  }
  EXPECT_GT(cases, 1000u);
}

}  // namespace
}  // namespace gb::wire
