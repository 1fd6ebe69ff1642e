// Canonical Huffman coding over a byte alphabet, used for the (run,size)
// symbols of the frame codecs. Code lengths are limited to 16 bits and the
// table is serialized as a 256-entry length array so the decoder rebuilds
// the identical canonical code.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codec/bitstream.h"

namespace gb::codec {

struct HuffmanCode {
  std::uint16_t bits = 0;
  std::uint8_t length = 0;  // 0 means the symbol does not occur
};

class HuffmanEncoder {
 public:
  // Builds a length-limited canonical code from symbol frequencies
  // (unused symbols get length 0).
  explicit HuffmanEncoder(std::span<const std::uint64_t> frequencies);

  void encode(BitWriter& out, std::uint8_t symbol) const;
  // Serializes the code-length table (one nibble-packed byte per 2 symbols).
  void write_table(ByteWriter& out) const;
  [[nodiscard]] const std::array<HuffmanCode, 256>& codes() const {
    return codes_;
  }

 private:
  std::array<HuffmanCode, 256> codes_{};
};

class HuffmanDecoder {
 public:
  // Rebuilds the canonical code from a serialized length table.
  static std::optional<HuffmanDecoder> from_table(ByteReader& in);

  // Decodes one symbol. Throws gb::Error on a bit sequence that matches no
  // code or on overrun.
  [[nodiscard]] std::uint8_t decode(BitReader& in) const;

  // The code at the front of `bits16`, the next 16 bits of a stream: returns
  // (code length << 8) | symbol, or throws gb::Error if no code matches.
  // Codes of up to kLookupBits bits resolve with one table lookup; longer
  // ones continue the canonical search from there. A caller that peeked
  // past the end of its data must still check the length against it.
  [[nodiscard]] std::uint32_t match(std::uint32_t bits16) const {
    const std::uint32_t hit = lookup_[bits16 >> (16 - kLookupBits)];
    return hit != 0 ? hit : match_long(bits16);
  }

  static constexpr int kLookupBits = 9;

 private:
  HuffmanDecoder() = default;
  // Canonical search over code lengths [from_len, 16] for the code whose
  // first 16 bits are `bits16`; returns (length << 8) | symbol, or 0 when no
  // length matches.
  [[nodiscard]] std::uint32_t search(std::uint32_t bits16, int from_len) const;
  [[nodiscard]] std::uint32_t match_long(std::uint32_t bits16) const;

  // first_code[len], first_symbol_index[len] for canonical decoding.
  std::array<std::uint32_t, 17> first_code_{};
  std::array<std::uint32_t, 17> count_{};
  std::array<std::uint32_t, 17> symbol_offset_{};
  std::vector<std::uint8_t> symbols_;  // sorted by (length, symbol)
  // Indexed by the next kLookupBits bits: (length << 8) | symbol for a code
  // of at most kLookupBits bits, 0 when the code is longer (or invalid).
  // Filled by running search() on each prefix, so it agrees with the
  // canonical search for any length table, malformed ones included.
  std::array<std::uint16_t, 1u << kLookupBits> lookup_{};
};

// Builds canonical code lengths (<=16) from frequencies; exposed for tests.
std::array<std::uint8_t, 256> build_code_lengths(
    std::span<const std::uint64_t> frequencies);

}  // namespace gb::codec
