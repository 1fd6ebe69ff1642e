// Table-driven encoding and decoding of command arguments. Each opcode's
// argument kinds (gles/call_table.h, via op_spec) drive both directions,
// so the record layout and the decoder's bounds checks are written once per
// kind rather than once per call.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "gles/types.h"
#include "wire/protocol.h"

namespace gb::wire {

namespace detail {

template <arg::Kind K, typename T>
void put(ByteWriter& w, const T& value, std::int64_t& count) {
  if constexpr (K == arg::u8) {
    w.u8(value ? 1 : 0);
  } else if constexpr (K == arg::u32) {
    w.u32(value);
  } else if constexpr (K == arg::i32 || K == arg::len) {
    w.i32(value);
  } else if constexpr (K == arg::f32) {
    w.f32(value);
  } else if constexpr (K == arg::varint) {
    w.varint(static_cast<std::uint64_t>(value));
  } else if constexpr (K == arg::str) {
    w.str(value);
  } else if constexpr (K == arg::count) {
    count = value;
    w.varint(static_cast<std::uint64_t>(value));
  } else if constexpr (K == arg::names) {
    for (std::int64_t i = 0; i < count; ++i) w.varint(value[i]);
  } else if constexpr (K == arg::blob) {
    w.blob(value);
  } else {
    static_assert(K == arg::mat4);
    for (int i = 0; i < 16; ++i) w.f32(value[i]);
  }
}

template <CmdOp Op, std::size_t... I, typename... Args>
void put_args(ByteWriter& w, std::index_sequence<I...>, const Args&... args) {
  [[maybe_unused]] std::int64_t count = 0;
  (put<op_spec(Op).kinds[I]>(w, args, count), ...);
}

}  // namespace detail

// Serializes one command record: the opcode, then `args` in table order.
template <CmdOp Op, typename... Args>
Bytes encode(const Args&... args) {
  static_assert(sizeof...(Args) == op_spec(Op).arity,
                "argument count differs from the call table");
  ByteWriter w;
  w.varint(static_cast<std::uint64_t>(Op));
  detail::put_args<Op>(w, std::index_sequence_for<Args...>{}, args...);
  return w.take();
}

// Reads the values of one record in table order, enforcing each kind's
// bounds: `len` and `count` values at most the opcode's cap, and a `count`
// no larger than the bytes left (every name takes at least one) — so no
// value read off the wire sizes an allocation beyond the record itself.
class ArgReader {
 public:
  ArgReader(ByteReader& r, std::uint32_t cap) : r_(r), cap_(cap) {}

  template <arg::Kind K>
  auto read() {
    if constexpr (K == arg::u8) {
      return r_.u8() != 0;
    } else if constexpr (K == arg::u32) {
      return r_.u32();
    } else if constexpr (K == arg::i32) {
      return r_.i32();
    } else if constexpr (K == arg::len) {
      const std::int32_t v = r_.i32();
      check(v <= static_cast<std::int64_t>(cap_), "record length over cap");
      return v;
    } else if constexpr (K == arg::f32) {
      return r_.f32();
    } else if constexpr (K == arg::varint) {
      return r_.varint();
    } else if constexpr (K == arg::str) {
      return r_.str();
    } else if constexpr (K == arg::count) {
      const std::uint64_t n = r_.varint();
      check(n <= cap_ && n <= r_.remaining(), "record count over cap");
      count_ = static_cast<std::size_t>(n);
      return static_cast<gles::GLsizei>(n);
    } else if constexpr (K == arg::names) {
      std::vector<gles::GLuint> names(count_);
      for (auto& name : names) name = narrow<gles::GLuint>(r_.varint());
      return names;
    } else if constexpr (K == arg::blob) {
      return r_.blob();
    } else {
      static_assert(K == arg::mat4);
      std::array<float, 16> m{};
      for (float& v : m) v = r_.f32();
      return m;
    }
  }

 private:
  ByteReader& r_;
  std::uint32_t cap_;
  std::size_t count_ = 0;
};

namespace detail {

template <CmdOp Op, std::size_t... I>
auto read_args(ByteReader& r, std::index_sequence<I...>) {
  ArgReader in(r, op_spec(Op).cap);
  // Braced initialization evaluates the reads left to right.
  return std::tuple{in.read<op_spec(Op).kinds[I]>()...};
}

}  // namespace detail

// Decodes the payload of an `Op` record (the opcode already consumed).
template <CmdOp Op>
auto read_args(ByteReader& r) {
  return detail::read_args<Op>(r,
                               std::make_index_sequence<op_spec(Op).arity>{});
}

}  // namespace gb::wire
