// Wire protocol for serialized GLES command streams (§IV-B).
//
// A *frame* is the unit the paper calls a "rendering request": every command
// issued between two SwapBuffer calls. Each command is one self-delimiting
// record — varint opcode followed by its arguments — so the LRU redundancy
// cache can treat records as cacheable units and the decoder can replay them
// one by one.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/bytes.h"
#include "gles/call_table.h"

namespace gb::wire {

// Opcodes, numbered as gles/call_table.h fixes them. Calls the wrapper
// answers locally (queries, glFlush/glFinish) have none; glVertexAttribPointer
// and glDrawElements have two wire forms each.
#define GB_CMD_OP(op, code, ...) op = code,
#define GB_CALL_OP(kind, ret, name, params, args, method, wire) \
  GB_IF(recorded, kind)(GB_CMD_OP wire)
enum class CmdOp : std::uint8_t {
  GB_GLES_CALLS(GB_CALL_OP) GB_GLES_EXTRA_OPS(GB_CMD_OP)
};
#undef GB_CALL_OP
#undef GB_CMD_OP

// Wire encoding of one serialized value (see gles/call_table.h).
namespace arg {
enum Kind : std::uint8_t {
  u8, u32, i32, f32, varint, str, len, count, names, blob, mat4
};
}  // namespace arg

// What the table declares about one opcode.
struct OpSpec {
  bool known = false;
  // Mutates context state that outlives the current frame. In multi-device
  // mode these commands are replicated to every service device to keep
  // their OpenGL contexts consistent (§VI-B); draws and clears only affect
  // the current frame's render target and go to a single device.
  bool shared = true;
  std::uint32_t cap = 0;  // bound on `len` / `count` values
  std::size_t arity = 0;
  std::array<arg::Kind, 9> kinds{};  // widest record: glTexSubImage2D
};

// Indexed by opcode value; unused values stay `known == false`.
inline constexpr std::array<OpSpec, 256> kOpSpecs = [] {
  using namespace arg;
  std::array<OpSpec, 256> specs{};
  const auto add = [&specs](std::size_t code, bool shared, std::uint32_t cap,
                            std::initializer_list<Kind> kinds) {
    OpSpec& spec = specs.at(code);
    if (spec.known) throw "opcode declared twice";
    spec = OpSpec{true, shared, cap, kinds.size(), {}};
    std::copy(kinds.begin(), kinds.end(), spec.kinds.begin());
  };
#define GB_OP_SPEC(op, code, shared, cap, ...) \
  add(code, shared, cap, {__VA_ARGS__});
#define GB_CALL_SPEC(kind, ret, name, params, args, method, wire) \
  GB_IF(recorded, kind)(GB_OP_SPEC wire)
  GB_GLES_CALLS(GB_CALL_SPEC)
  GB_GLES_EXTRA_OPS(GB_OP_SPEC)
#undef GB_CALL_SPEC
#undef GB_OP_SPEC
  return specs;
}();

constexpr const OpSpec& op_spec(CmdOp op) {
  return kOpSpecs[static_cast<std::uint8_t>(op)];
}

// True for commands that mutate context state that outlives the current
// frame (OpSpec::shared); unknown opcodes count as shared.
constexpr bool mutates_shared_state(CmdOp op) {
  const OpSpec& spec = op_spec(op);
  return !spec.known || spec.shared;
}

// One serialized command record.
struct CommandRecord {
  Bytes bytes;  // varint opcode + payload

  [[nodiscard]] CmdOp op() const {
    ByteReader reader(bytes);
    return static_cast<CmdOp>(reader.varint());
  }
};

// All records between two SwapBuffers, in issue order. `sequence` is the
// rendering-request sequence number used to display results in order when
// requests complete out of order on different service devices (§VI-C).
struct FrameCommands {
  std::uint64_t sequence = 0;
  std::vector<CommandRecord> records;

  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const CommandRecord& r : records) n += r.bytes.size();
    return n;
  }
};

}  // namespace gb::wire
