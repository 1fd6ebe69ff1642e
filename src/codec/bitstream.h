// Bit-granular writer/reader used by the entropy-coding stages of the frame
// codecs. Bits are packed MSB-first within bytes.
//
// Both sides move a word at a time: the writer packs bits into a 64-bit
// accumulator and stores whole bytes, and the reader loads the eight bytes
// under its cursor, so a Huffman code or magnitude field costs one shift and
// mask instead of a call per bit. The bytes written and the values read are
// the same as a bit-serial implementation's.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/bytes.h"
#include "common/error.h"

namespace gb::codec {

class BitWriter {
 public:
  // Writes the low `count` bits of `value`, most significant first;
  // `count` is 0..32.
  void put_bits(std::uint32_t value, int count) {
    const std::uint64_t mask = (std::uint64_t{1} << count) - 1;
    acc_ = (acc_ << count) | (value & mask);
    filled_ += count;
    // Keep fewer than 32 pending bits, so the next put_bits cannot shift the
    // oldest pending bit out of the accumulator.
    if (filled_ >= 32) {
      filled_ -= 32;
      const auto word = static_cast<std::uint32_t>(acc_ >> filled_);
      const std::uint8_t be[4] = {static_cast<std::uint8_t>(word >> 24),
                                  static_cast<std::uint8_t>(word >> 16),
                                  static_cast<std::uint8_t>(word >> 8),
                                  static_cast<std::uint8_t>(word)};
      buf_.insert(buf_.end(), be, be + 4);
    }
  }

  // Pads the final byte with zero bits and returns the buffer.
  [[nodiscard]] Bytes finish() {
    put_bits(0, (8 - filled_ % 8) % 8);
    while (filled_ > 0) {
      filled_ -= 8;
      buf_.push_back(static_cast<std::uint8_t>(acc_ >> filled_));
    }
    return std::move(buf_);
  }

  [[nodiscard]] std::size_t bit_count() const {
    return buf_.size() * 8 + static_cast<std::size_t>(filled_);
  }

 private:
  Bytes buf_;
  std::uint64_t acc_ = 0;  // the low `filled_` bits are pending output
  int filled_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  // The next `count` (1..32) bits without consuming them; bits past the end
  // of the data read as zero.
  [[nodiscard]] std::uint32_t peek(int count) const {
    return static_cast<std::uint32_t>(window() >> (64 - count));
  }

  // Consumes `count` bits; throws gb::Error if fewer remain.
  void skip(int count) {
    check(static_cast<std::size_t>(count) <= bits_remaining(),
          "bit reader overrun");
    bit_pos_ += static_cast<std::size_t>(count);
  }

  // Reads `count` (0..32) bits, most significant first; throws gb::Error if
  // fewer remain.
  std::uint32_t get_bits(int count) {
    if (count == 0) return 0;
    const std::uint32_t v = peek(count);
    skip(count);
    return v;
  }

  [[nodiscard]] std::size_t bits_remaining() const {
    return data_.size() * 8 - bit_pos_;
  }

 private:
  // The 64 bits starting at the cursor, left-aligned, zero past the end.
  // At least 57 of them come from the eight bytes under the cursor.
  [[nodiscard]] std::uint64_t window() const {
    const std::size_t byte = bit_pos_ / 8;
    std::uint64_t w = 0;
    if (byte + 8 <= data_.size()) {
      std::memcpy(&w, data_.data() + byte, 8);
      if constexpr (std::endian::native == std::endian::little) {
        w = __builtin_bswap64(w);
      }
    } else {
      for (std::size_t i = byte; i < data_.size(); ++i) {
        w |= std::uint64_t{data_[i]} << (56 - 8 * (i - byte));
      }
    }
    return w << (bit_pos_ % 8);
  }

  std::span<const std::uint8_t> data_;
  std::size_t bit_pos_ = 0;
};

}  // namespace gb::codec
