#include "gles/shader_vm.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace gb::gles {
namespace {

// Largest register file, in bytes, that still gets all kMaxLanes lanes.
constexpr std::size_t kLaneFileBytes = 16 * 1024;

float component(const Vec4& v, int i) {
  switch (i) {
    case 0:
      return v.x;
    case 1:
      return v.y;
    case 2:
      return v.z;
    default:
      return v.w;
  }
}

void set_component(Vec4& v, int i, float value) {
  switch (i) {
    case 0:
      v.x = value;
      break;
    case 1:
      v.y = value;
      break;
    case 2:
      v.z = value;
      break;
    default:
      v.w = value;
      break;
  }
}

template <typename F>
Vec4 map1(const Vec4& v, F f) {
  return {f(v.x), f(v.y), f(v.z), f(v.w)};
}

float dot_n(const Vec4& a, const Vec4& b, int n) {
  float sum = 0.0f;
  for (int i = 0; i < n; ++i) sum += component(a, i) * component(b, i);
  return sum;
}

float wrap_coord(float t, GLenum mode) {
  if (mode == GL_CLAMP_TO_EDGE) return std::clamp(t, 0.0f, 1.0f);
  return t - std::floor(t);  // GL_REPEAT
}

Vec4 texel(const std::uint8_t* p) {
  constexpr float kInv255 = 1.0f / 255.0f;
  return {p[0] * kInv255, p[1] * kInv255, p[2] * kInv255, p[3] * kInv255};
}

// The texel at (x, y), clamped to the image's edge.
Vec4 fetch_texel(const Image& img, int x, int y) {
  return texel(img.pixel(std::clamp(x, 0, img.width() - 1),
                         std::clamp(y, 0, img.height() - 1)));
}

// Applies `f` to each of lanes [0, n). The lane loop is innermost, so one
// decoded instruction serves the whole batch.
template <typename F>
void each_lane(int n, F f) {
  for (int l = 0; l < n; ++l) f(l);
}

}  // namespace

Vec4 sample_texture(const TextureObject& tex, float u, float v) {
  const Image& img = tex.image;
  if (img.empty()) return {0, 0, 0, 1};
  u = wrap_coord(u, tex.wrap_s);
  v = wrap_coord(v, tex.wrap_t);
  const float fx = u * static_cast<float>(img.width()) - 0.5f;
  const float fy = v * static_cast<float>(img.height()) - 0.5f;
  if (tex.mag_filter == GL_NEAREST) {
    return fetch_texel(img, static_cast<int>(std::lround(fx)),
                       static_cast<int>(std::lround(fy)));
  }
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const float ax = fx - static_cast<float>(x0);
  const float ay = fy - static_cast<float>(y0);
  // The 2x2 footprint, each coordinate clamped to the edge once.
  const int max_x = img.width() - 1;
  const int max_y = img.height() - 1;
  const std::size_t left = static_cast<std::size_t>(std::clamp(x0, 0, max_x)) * 4;
  const std::size_t right = static_cast<std::size_t>(std::clamp(x0 + 1, 0, max_x)) * 4;
  const std::uint8_t* top_row = img.pixel(0, std::clamp(y0, 0, max_y));
  const std::uint8_t* bottom_row = img.pixel(0, std::clamp(y0 + 1, 0, max_y));
  const Vec4 t00 = texel(top_row + left);
  const Vec4 t10 = texel(top_row + right);
  const Vec4 t01 = texel(bottom_row + left);
  const Vec4 t11 = texel(bottom_row + right);
  const Vec4 top = t00 + (t10 - t00) * ax;
  const Vec4 bottom = t01 + (t11 - t01) * ax;
  return top + (bottom - top) * ay;
}

void LaneRegisters::bind(const CompiledShader& shader,
                         std::span<const Vec4> preload) {
  registers_ = shader.register_file_size;
  check(preload.size() >= registers_, "shader preload smaller than its registers");
  const std::size_t fit =
      kLaneFileBytes / (std::max<std::size_t>(registers_, 1) * sizeof(Vec4));
  lanes_ = static_cast<int>(std::clamp<std::size_t>(fit, 1, kMaxLanes));
  regs_.resize(registers_ * static_cast<std::size_t>(lanes_));
  preload_ = preload;
  loaded_ = 0;
}

void LaneRegisters::prepare(int n) {
  for (; loaded_ < n; ++loaded_) {
    for (std::size_t r = 0; r < registers_; ++r) at(r, loaded_) = preload_[r];
  }
}

void load_constants(const CompiledShader& shader, std::span<Vec4> registers) {
  for (const auto& [reg, value] : shader.constants) registers[reg] = value;
}

void run_lanes(const CompiledShader& shader, LaneRegisters& regs, int n,
               const SamplerTable& textures) {
  check(n >= 0 && n <= regs.lanes(), "lane batch larger than the register file");
  regs.prepare(n);
  // Each lane copies its operands before writing its destination, as the
  // one-invocation VM did, so an instruction whose destination is also a
  // source reads the old value.
  for (const Instr& in : shader.code) {
    const Vec4* a = regs.reg(in.src0);
    const Vec4* b = regs.reg(in.src1);
    const Vec4* c = regs.reg(in.src2);
    Vec4* dst = regs.reg(in.dst);
    switch (in.op) {
      case Op::kMov:
        each_lane(n, [&](int l) { dst[l] = a[l]; });
        break;
      case Op::kInsert: {
        const int offset = static_cast<int>(in.imm & 0xf);
        const int count = static_cast<int>((in.imm >> 4) & 0xf);
        each_lane(n, [&](int l) {
          const Vec4 src = a[l];
          for (int i = 0; i < count; ++i) {
            set_component(dst[l], offset + i, component(src, i));
          }
        });
        break;
      }
      case Op::kSwizzle: {
        const int count = static_cast<int>((in.imm >> 8) & 0xf);
        each_lane(n, [&](int l) {
          const Vec4 src = a[l];
          Vec4 r = dst[l];
          for (int i = 0; i < count; ++i) {
            set_component(r, i,
                          component(src, static_cast<int>((in.imm >> (2 * i)) & 3)));
          }
          dst[l] = r;
        });
        break;
      }
      case Op::kAdd:
        each_lane(n, [&](int l) { dst[l] = a[l] + b[l]; });
        break;
      case Op::kSub:
        each_lane(n, [&](int l) { dst[l] = a[l] - b[l]; });
        break;
      case Op::kMul:
        each_lane(n, [&](int l) { dst[l] = a[l] * b[l]; });
        break;
      case Op::kDiv:
        each_lane(n, [&](int l) {
          const Vec4 x = a[l];
          const Vec4 y = b[l];
          dst[l] = {x.x / y.x, x.y / y.y, x.z / y.z, x.w / y.w};
        });
        break;
      case Op::kNeg:
        each_lane(n, [&](int l) { dst[l] = a[l] * -1.0f; });
        break;
      case Op::kMatMul: {
        // src0..src0+3 are the matrix columns.
        const Vec4* c0 = regs.reg(in.src0);
        const Vec4* c1 = regs.reg(in.src0 + 1);
        const Vec4* c2 = regs.reg(in.src0 + 2);
        const Vec4* c3 = regs.reg(in.src0 + 3);
        each_lane(n, [&](int l) {
          const Vec4 v = b[l];
          dst[l] = c0[l] * v.x + c1[l] * v.y + c2[l] * v.z + c3[l] * v.w;
        });
        break;
      }
      case Op::kDot: {
        const int count = static_cast<int>(in.imm);
        each_lane(n, [&](int l) {
          const float d = dot_n(a[l], b[l], count);
          dst[l] = {d, d, d, d};
        });
        break;
      }
      case Op::kNormalize: {
        const int count = static_cast<int>(in.imm);
        each_lane(n, [&](int l) {
          const Vec4 v = a[l];
          const float len = std::sqrt(dot_n(v, v, count));
          dst[l] = len > 0.0f ? v * (1.0f / len) : v;
        });
        break;
      }
      case Op::kLength: {
        const int count = static_cast<int>(in.imm);
        each_lane(n, [&](int l) {
          const float len = std::sqrt(dot_n(a[l], a[l], count));
          dst[l] = {len, len, len, len};
        });
        break;
      }
      case Op::kMix:
        each_lane(n, [&](int l) {
          const Vec4 x = a[l];
          dst[l] = x + (b[l] - x) * c[l];
        });
        break;
      case Op::kClamp:
        each_lane(n, [&](int l) {
          const Vec4 x = a[l];
          const Vec4 lo = b[l];
          const Vec4 hi = c[l];
          dst[l] = {std::fmin(std::fmax(x.x, lo.x), hi.x),
                    std::fmin(std::fmax(x.y, lo.y), hi.y),
                    std::fmin(std::fmax(x.z, lo.z), hi.z),
                    std::fmin(std::fmax(x.w, lo.w), hi.w)};
        });
        break;
      case Op::kMin:
        each_lane(n, [&](int l) {
          const Vec4 x = a[l];
          const Vec4 y = b[l];
          dst[l] = {std::fmin(x.x, y.x), std::fmin(x.y, y.y),
                    std::fmin(x.z, y.z), std::fmin(x.w, y.w)};
        });
        break;
      case Op::kMax:
        each_lane(n, [&](int l) {
          const Vec4 x = a[l];
          const Vec4 y = b[l];
          dst[l] = {std::fmax(x.x, y.x), std::fmax(x.y, y.y),
                    std::fmax(x.z, y.z), std::fmax(x.w, y.w)};
        });
        break;
      case Op::kAbs:
        each_lane(n, [&](int l) {
          dst[l] = map1(a[l], [](float x) { return std::fabs(x); });
        });
        break;
      case Op::kFract:
        each_lane(n, [&](int l) {
          dst[l] = map1(a[l], [](float x) { return x - std::floor(x); });
        });
        break;
      case Op::kSqrt:
        each_lane(n, [&](int l) {
          dst[l] = map1(a[l], [](float x) { return std::sqrt(std::fmax(x, 0.0f)); });
        });
        break;
      case Op::kSin:
        each_lane(n, [&](int l) {
          dst[l] = map1(a[l], [](float x) { return std::sin(x); });
        });
        break;
      case Op::kCos:
        each_lane(n, [&](int l) {
          dst[l] = map1(a[l], [](float x) { return std::cos(x); });
        });
        break;
      case Op::kTex2D: {
        const TextureObject* tex =
            in.imm < textures.size() ? textures[in.imm] : nullptr;
        if (tex == nullptr) {
          each_lane(n, [&](int l) { dst[l] = {0, 0, 0, 1}; });
        } else {
          each_lane(n, [&](int l) {
            const Vec4 uv = a[l];
            dst[l] = sample_texture(*tex, uv.x, uv.y);
          });
        }
        break;
      }
    }
  }
}

}  // namespace gb::gles
