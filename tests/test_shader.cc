// Tests for the shader-language compiler and bytecode VM.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "gles/objects.h"
#include "gles/shader.h"
#include "gles/shader_vm.h"

namespace gb::gles {
namespace {

// The shader's constants as a one-lane register image.
std::vector<Vec4> preload_of(const CompiledShader& shader) {
  std::vector<Vec4> preload(shader.register_file_size);
  load_constants(shader, preload);
  return preload;
}

// Compiles a fragment shader, runs it on one lane with no inputs, and
// returns gl_FragColor. Fails the test on compile errors.
Vec4 run_fragment(const std::string& body_or_source) {
  std::string error;
  auto compiled = compile_shader(ShaderKind::kFragment, body_or_source, error);
  EXPECT_TRUE(compiled.has_value()) << error;
  if (!compiled) return {};
  const std::vector<Vec4> preload = preload_of(*compiled);
  LaneRegisters regs;
  regs.bind(*compiled, preload);
  run_lanes(*compiled, regs, 1, SamplerTable{});
  return regs.at(compiled->fragcolor_register, 0);
}

TEST(ShaderCompiler, MinimalFragmentShader) {
  const Vec4 c = run_fragment("void main() { gl_FragColor = vec4(1.0, 0.5, 0.25, 1.0); }");
  EXPECT_FLOAT_EQ(c.x, 1.0f);
  EXPECT_FLOAT_EQ(c.y, 0.5f);
  EXPECT_FLOAT_EQ(c.z, 0.25f);
  EXPECT_FLOAT_EQ(c.w, 1.0f);
}

TEST(ShaderCompiler, ArithmeticPrecedence) {
  const Vec4 c = run_fragment(
      "void main() { float v = 1.0 + 2.0 * 3.0; gl_FragColor = vec4(v); }");
  EXPECT_FLOAT_EQ(c.x, 7.0f);
}

TEST(ShaderCompiler, ParenthesesOverridePrecedence) {
  const Vec4 c = run_fragment(
      "void main() { float v = (1.0 + 2.0) * 3.0; gl_FragColor = vec4(v); }");
  EXPECT_FLOAT_EQ(c.x, 9.0f);
}

TEST(ShaderCompiler, UnaryMinus) {
  const Vec4 c = run_fragment(
      "void main() { float v = -3.0; gl_FragColor = vec4(-v); }");
  EXPECT_FLOAT_EQ(c.x, 3.0f);
}

TEST(ShaderCompiler, ScalarBroadcastInVectorOps) {
  const Vec4 c = run_fragment(
      "void main() { vec4 v = vec4(1.0, 2.0, 3.0, 4.0) * 0.5; gl_FragColor = v; }");
  EXPECT_FLOAT_EQ(c.x, 0.5f);
  EXPECT_FLOAT_EQ(c.w, 2.0f);
}

TEST(ShaderCompiler, SwizzleReorder) {
  const Vec4 c = run_fragment(
      "void main() { vec4 v = vec4(1.0, 2.0, 3.0, 4.0); gl_FragColor = v.wzyx; }");
  EXPECT_FLOAT_EQ(c.x, 4.0f);
  EXPECT_FLOAT_EQ(c.y, 3.0f);
  EXPECT_FLOAT_EQ(c.z, 2.0f);
  EXPECT_FLOAT_EQ(c.w, 1.0f);
}

TEST(ShaderCompiler, SwizzleNarrowAndConstructor) {
  const Vec4 c = run_fragment(
      "void main() { vec4 v = vec4(9.0, 8.0, 7.0, 6.0);"
      "  vec2 xy = v.xy; gl_FragColor = vec4(xy, 0.0, 1.0); }");
  EXPECT_FLOAT_EQ(c.x, 9.0f);
  EXPECT_FLOAT_EQ(c.y, 8.0f);
  EXPECT_FLOAT_EQ(c.z, 0.0f);
}

TEST(ShaderCompiler, RgbaSwizzleAliases) {
  const Vec4 c = run_fragment(
      "void main() { vec4 v = vec4(0.1, 0.2, 0.3, 0.4); gl_FragColor = v.abgr; }");
  EXPECT_FLOAT_EQ(c.x, 0.4f);
  EXPECT_FLOAT_EQ(c.w, 0.1f);
}

TEST(ShaderCompiler, SplatConstructor) {
  const Vec4 c = run_fragment("void main() { gl_FragColor = vec4(0.75); }");
  EXPECT_FLOAT_EQ(c.x, 0.75f);
  EXPECT_FLOAT_EQ(c.w, 0.75f);
}

struct IntrinsicCase {
  const char* name;
  const char* source;
  float expected_x;
};

// gtest's default printer dumps the raw bytes of the struct, pointers and
// padding included, which makes the listed test names differ run to run.
void PrintTo(const IntrinsicCase& c, std::ostream* os) { *os << c.name; }

class IntrinsicTest : public ::testing::TestWithParam<IntrinsicCase> {};

TEST_P(IntrinsicTest, EvaluatesCorrectly) {
  const Vec4 c = run_fragment(GetParam().source);
  EXPECT_NEAR(c.x, GetParam().expected_x, 1e-5f) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Intrinsics, IntrinsicTest,
    ::testing::Values(
        IntrinsicCase{"dot", "void main() { float d = dot(vec3(1.0, 2.0, 3.0), vec3(4.0, 5.0, 6.0)); gl_FragColor = vec4(d); }", 32.0f},
        IntrinsicCase{"length", "void main() { float d = length(vec2(3.0, 4.0)); gl_FragColor = vec4(d); }", 5.0f},
        IntrinsicCase{"normalize", "void main() { vec2 n = normalize(vec2(10.0, 0.0)); gl_FragColor = vec4(n, 0.0, 0.0); }", 1.0f},
        IntrinsicCase{"mix", "void main() { float v = mix(2.0, 4.0, 0.25); gl_FragColor = vec4(v); }", 2.5f},
        IntrinsicCase{"mix_vec_scalar_t", "void main() { vec2 v = mix(vec2(0.0, 0.0), vec2(2.0, 4.0), 0.5); gl_FragColor = vec4(v, 0.0, 0.0); }", 1.0f},
        IntrinsicCase{"clamp_low", "void main() { float v = clamp(-2.0, 0.0, 1.0); gl_FragColor = vec4(v); }", 0.0f},
        IntrinsicCase{"clamp_high", "void main() { float v = clamp(7.0, 0.0, 1.0); gl_FragColor = vec4(v); }", 1.0f},
        IntrinsicCase{"min", "void main() { float v = min(3.0, 2.0); gl_FragColor = vec4(v); }", 2.0f},
        IntrinsicCase{"max", "void main() { float v = max(3.0, 2.0); gl_FragColor = vec4(v); }", 3.0f},
        IntrinsicCase{"abs", "void main() { float v = abs(-1.5); gl_FragColor = vec4(v); }", 1.5f},
        IntrinsicCase{"fract", "void main() { float v = fract(2.75); gl_FragColor = vec4(v); }", 0.75f},
        IntrinsicCase{"sqrt", "void main() { float v = sqrt(16.0); gl_FragColor = vec4(v); }", 4.0f},
        IntrinsicCase{"sin_zero", "void main() { float v = sin(0.0); gl_FragColor = vec4(v); }", 0.0f},
        IntrinsicCase{"cos_zero", "void main() { float v = cos(0.0); gl_FragColor = vec4(v); }", 1.0f}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ShaderCompiler, VertexShaderMatrixTransform) {
  std::string error;
  auto compiled = compile_shader(ShaderKind::kVertex, R"(
      attribute vec4 a_position;
      uniform mat4 u_mvp;
      void main() { gl_Position = u_mvp * a_position; }
  )", error);
  ASSERT_TRUE(compiled.has_value()) << error;
  ASSERT_EQ(compiled->attributes.size(), 1u);
  ASSERT_EQ(compiled->uniforms.size(), 1u);

  std::vector<Vec4> preload = preload_of(*compiled);
  // u_mvp = translation by (5, 6, 7).
  const std::uint16_t m = compiled->uniforms[0].base_register;
  preload[m + 0] = {1, 0, 0, 0};
  preload[m + 1] = {0, 1, 0, 0};
  preload[m + 2] = {0, 0, 1, 0};
  preload[m + 3] = {5, 6, 7, 1};
  LaneRegisters regs;
  regs.bind(*compiled, preload);
  regs.prepare(1);
  regs.at(compiled->attributes[0].base_register, 0) = {1, 2, 3, 1};
  run_lanes(*compiled, regs, 1, SamplerTable{});
  const Vec4 pos = regs.at(compiled->position_register, 0);
  EXPECT_FLOAT_EQ(pos.x, 6.0f);
  EXPECT_FLOAT_EQ(pos.y, 8.0f);
  EXPECT_FLOAT_EQ(pos.z, 10.0f);
  EXPECT_FLOAT_EQ(pos.w, 1.0f);
}

TEST(ShaderCompiler, VaryingsAreRecorded) {
  std::string error;
  auto vs = compile_shader(ShaderKind::kVertex, R"(
      attribute vec4 a_position;
      varying vec2 v_uv;
      void main() { gl_Position = a_position; v_uv = a_position.xy; }
  )", error);
  ASSERT_TRUE(vs.has_value()) << error;
  ASSERT_EQ(vs->varyings.size(), 1u);
  EXPECT_EQ(vs->varyings[0].name, "v_uv");
  EXPECT_EQ(vs->varyings[0].type, ShaderType::kVec2);
}

TEST(ShaderCompiler, Texture2DSamplesThroughCallback) {
  // texture2D reads the texture its sampler slot resolves to in the table
  // the draw passes; an unresolved slot reads {0, 0, 0, 1}.
  std::string error;
  auto fs = compile_shader(ShaderKind::kFragment, R"(
      precision mediump float;
      uniform sampler2D u_tex;
      void main() { gl_FragColor = texture2D(u_tex, vec2(0.5, 0.25)); }
  )", error);
  ASSERT_TRUE(fs.has_value()) << error;
  EXPECT_EQ(fs->sampler_slot_count, 1);
  // A 2x4 nearest texture: (u, v) = (0.5, 0.25) lands on texel (1, 1).
  TextureObject tex;
  tex.image = Image(2, 4);
  tex.image.fill(0, 0, 0, 255);
  std::uint8_t* texel = tex.image.pixel(1, 1);
  texel[0] = 230;
  texel[1] = 204;
  tex.mag_filter = GL_NEAREST;
  const std::vector<Vec4> preload = preload_of(*fs);
  LaneRegisters regs;
  regs.bind(*fs, preload);
  SamplerTable textures{};
  run_lanes(*fs, regs, 1, textures);
  EXPECT_FLOAT_EQ(regs.at(fs->fragcolor_register, 0).x, 0.0f);
  EXPECT_FLOAT_EQ(regs.at(fs->fragcolor_register, 0).w, 1.0f);
  textures[0] = &tex;
  run_lanes(*fs, regs, 1, textures);
  EXPECT_FLOAT_EQ(regs.at(fs->fragcolor_register, 0).x, 230.0f / 255.0f);
  EXPECT_FLOAT_EQ(regs.at(fs->fragcolor_register, 0).y, 204.0f / 255.0f);
}

TEST(ShaderVm, LanesMatchOneLaneRuns) {
  // A batch evaluates each lane exactly as a one-lane run of the same
  // inputs, whatever the other lanes hold.
  std::string error;
  auto fs = compile_shader(ShaderKind::kFragment, R"(
      precision mediump float;
      varying vec2 v_uv;
      void main() {
        vec2 s = vec2(sin(v_uv.x * 7.0), cos(v_uv.y * 3.0));
        gl_FragColor = vec4(normalize(vec3(s, fract(v_uv.x * 9.0))), length(s));
      }
  )", error);
  ASSERT_TRUE(fs.has_value()) << error;
  ASSERT_EQ(fs->varyings.size(), 1u);
  const std::uint16_t uv = fs->varyings[0].base_register;
  const std::vector<Vec4> preload = preload_of(*fs);
  LaneRegisters batch;
  batch.bind(*fs, preload);
  const int n = batch.lanes();
  ASSERT_EQ(n, LaneRegisters::kMaxLanes);
  batch.prepare(n);
  for (int l = 0; l < n; ++l) {
    batch.at(uv, l) = {0.37f * static_cast<float>(l), 1.0f / (l + 1.0f), 0, 0};
  }
  run_lanes(*fs, batch, n, SamplerTable{});
  for (int l = 0; l < n; ++l) {
    LaneRegisters one;
    one.bind(*fs, preload);
    one.prepare(1);
    one.at(uv, 0) = {0.37f * static_cast<float>(l), 1.0f / (l + 1.0f), 0, 0};
    run_lanes(*fs, one, 1, SamplerTable{});
    const Vec4 a = batch.at(fs->fragcolor_register, l);
    const Vec4 b = one.at(fs->fragcolor_register, 0);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(Vec4)), 0) << "lane " << l;
  }
}

TEST(ShaderCompiler, CommentsAreIgnored) {
  const Vec4 c = run_fragment(
      "// line comment\n/* block\ncomment */\n"
      "void main() { gl_FragColor = vec4(1.0); /* trailing */ }");
  EXPECT_FLOAT_EQ(c.x, 1.0f);
}

struct ErrorCase {
  const char* name;
  ShaderKind kind;
  const char* source;
};

void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class CompileErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(CompileErrorTest, IsRejected) {
  std::string error;
  auto compiled = compile_shader(GetParam().kind, GetParam().source, error);
  EXPECT_FALSE(compiled.has_value()) << GetParam().name;
  EXPECT_FALSE(error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Errors, CompileErrorTest,
    ::testing::Values(
        ErrorCase{"missing_main", ShaderKind::kFragment, "uniform vec4 u;"},
        ErrorCase{"undeclared_identifier", ShaderKind::kFragment,
                  "void main() { gl_FragColor = nosuch; }"},
        ErrorCase{"attribute_in_fragment", ShaderKind::kFragment,
                  "attribute vec4 a; void main() { gl_FragColor = a; }"},
        ErrorCase{"fragcolor_in_vertex", ShaderKind::kVertex,
                  "void main() { gl_FragColor = vec4(1.0); }"},
        ErrorCase{"position_in_fragment", ShaderKind::kFragment,
                  "void main() { gl_Position = vec4(1.0); }"},
        ErrorCase{"type_mismatch_assign", ShaderKind::kFragment,
                  "void main() { vec2 v = vec2(1.0, 2.0); gl_FragColor = v; }"},
        ErrorCase{"swizzle_too_wide", ShaderKind::kFragment,
                  "void main() { vec2 v = vec2(1.0, 2.0); gl_FragColor = vec4(v.z); }"},
        ErrorCase{"bad_constructor_count", ShaderKind::kFragment,
                  "void main() { gl_FragColor = vec4(1.0, 2.0); }"},
        ErrorCase{"unknown_function", ShaderKind::kFragment,
                  "void main() { gl_FragColor = vec4(zing(1.0)); }"},
        ErrorCase{"redeclaration", ShaderKind::kFragment,
                  "uniform vec4 u; uniform vec4 u; void main() { gl_FragColor = u; }"},
        ErrorCase{"sampler_not_uniform", ShaderKind::kFragment,
                  "varying sampler2D s; void main() { gl_FragColor = vec4(1.0); }"},
        ErrorCase{"missing_semicolon", ShaderKind::kFragment,
                  "void main() { gl_FragColor = vec4(1.0) }"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ShaderVm, InstructionCountIsBounded) {
  // Sanity check that codegen does not explode: the standard textured
  // shader should compile to a handful of instructions.
  std::string error;
  auto fs = compile_shader(ShaderKind::kFragment, R"(
      precision mediump float;
      varying vec2 v_uv;
      uniform sampler2D u_tex;
      uniform vec4 u_tint;
      void main() { gl_FragColor = texture2D(u_tex, v_uv) * u_tint; }
  )", error);
  ASSERT_TRUE(fs.has_value()) << error;
  EXPECT_LE(fs->code.size(), 8u);
}

}  // namespace
}  // namespace gb::gles
