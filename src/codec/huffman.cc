#include "codec/huffman.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.h"

namespace gb::codec {
namespace {

constexpr int kMaxLength = 16;

struct Node {
  std::uint64_t weight;
  int index;           // <256: leaf symbol; otherwise internal
  int left = -1;
  int right = -1;
};

// Standard Huffman tree construction, then depth extraction, then length
// limiting by the simple "push overlong leaves up" rebalance.
std::array<std::uint8_t, 256> lengths_from_tree(
    std::span<const std::uint64_t> freq) {
  std::vector<Node> nodes;
  const auto cmp = [&nodes](int a, int b) {
    if (nodes[static_cast<std::size_t>(a)].weight !=
        nodes[static_cast<std::size_t>(b)].weight) {
      return nodes[static_cast<std::size_t>(a)].weight >
             nodes[static_cast<std::size_t>(b)].weight;
    }
    return a > b;  // deterministic tie-break
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
  for (int s = 0; s < 256; ++s) {
    if (freq[static_cast<std::size_t>(s)] > 0) {
      nodes.push_back(Node{freq[static_cast<std::size_t>(s)], s});
      heap.push(static_cast<int>(nodes.size()) - 1);
    }
  }
  std::array<std::uint8_t, 256> lengths{};
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].index)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const int a = heap.top();
    heap.pop();
    const int b = heap.top();
    heap.pop();
    nodes.push_back(Node{nodes[static_cast<std::size_t>(a)].weight +
                             nodes[static_cast<std::size_t>(b)].weight,
                         256, a, b});
    heap.push(static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first traversal to assign lengths.
  struct Frame {
    int node;
    int depth;
  };
  std::vector<Frame> stack{{heap.top(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(f.node)];
    if (node.index < 256) {
      lengths[static_cast<std::size_t>(node.index)] =
          static_cast<std::uint8_t>(std::max(1, f.depth));
      continue;
    }
    stack.push_back({node.left, f.depth + 1});
    stack.push_back({node.right, f.depth + 1});
  }
  return lengths;
}

}  // namespace

std::array<std::uint8_t, 256> build_code_lengths(
    std::span<const std::uint64_t> frequencies) {
  check(frequencies.size() == 256, "frequency table must cover the alphabet");
  auto lengths = lengths_from_tree(frequencies);

  // Length-limit to kMaxLength using Kraft-sum repair: shorten the deepest
  // pair by lengthening a shallower leaf until the sum is feasible.
  for (;;) {
    double kraft = 0.0;
    bool overlong = false;
    for (int s = 0; s < 256; ++s) {
      const int len = lengths[static_cast<std::size_t>(s)];
      if (len == 0) continue;
      if (len > kMaxLength) {
        lengths[static_cast<std::size_t>(s)] = kMaxLength;
        overlong = true;
      }
      kraft += std::pow(2.0, -std::min(len, kMaxLength));
    }
    if (!overlong && kraft <= 1.0 + 1e-12) break;
    if (kraft <= 1.0 + 1e-12) break;
    // Find the longest code < kMaxLength and extend it by one to pay for the
    // clamped codes (classic JPEG-style adjustment loop).
    int victim = -1;
    for (int s = 0; s < 256; ++s) {
      const int len = lengths[static_cast<std::size_t>(s)];
      if (len > 0 && len < kMaxLength &&
          (victim < 0 || len > lengths[static_cast<std::size_t>(victim)])) {
        victim = s;
      }
    }
    check(victim >= 0, "cannot length-limit Huffman code");
    lengths[static_cast<std::size_t>(victim)]++;
  }
  return lengths;
}

namespace {

// Assigns canonical codes given lengths: symbols sorted by (length, value).
std::array<HuffmanCode, 256> canonical_codes(
    const std::array<std::uint8_t, 256>& lengths) {
  std::array<HuffmanCode, 256> codes{};
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (lengths[static_cast<std::size_t>(s)] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int la = lengths[static_cast<std::size_t>(a)];
    const int lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (const int s : order) {
    const int len = lengths[static_cast<std::size_t>(s)];
    code <<= (len - prev_len);
    codes[static_cast<std::size_t>(s)] =
        HuffmanCode{static_cast<std::uint16_t>(code),
                    static_cast<std::uint8_t>(len)};
    ++code;
    prev_len = len;
  }
  return codes;
}

}  // namespace

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint64_t> frequencies) {
  codes_ = canonical_codes(build_code_lengths(frequencies));
}

void HuffmanEncoder::encode(BitWriter& out, std::uint8_t symbol) const {
  const HuffmanCode& c = codes_[symbol];
  check(c.length > 0, "encoding symbol absent from Huffman table");
  out.put_bits(c.bits, c.length);
}

void HuffmanEncoder::write_table(ByteWriter& out) const {
  // Lengths fit in 5 bits; pack two per byte (4 bits each would overflow at
  // 16, so use one byte per symbol — simple and still tiny next to pixels).
  for (const HuffmanCode& c : codes_) out.u8(c.length);
}

std::optional<HuffmanDecoder> HuffmanDecoder::from_table(ByteReader& in) {
  std::array<std::uint8_t, 256> lengths{};
  for (auto& len : lengths) {
    len = in.u8();
    if (len > kMaxLength) return std::nullopt;
  }
  HuffmanDecoder d;
  for (int s = 0; s < 256; ++s) {
    const int len = lengths[static_cast<std::size_t>(s)];
    if (len > 0) d.count_[static_cast<std::size_t>(len)]++;
  }
  // Canonical first-code per length.
  std::uint32_t code = 0;
  std::uint32_t offset = 0;
  for (int len = 1; len <= kMaxLength; ++len) {
    d.first_code_[static_cast<std::size_t>(len)] = code;
    d.symbol_offset_[static_cast<std::size_t>(len)] = offset;
    code = (code + d.count_[static_cast<std::size_t>(len)]) << 1;
    offset += d.count_[static_cast<std::size_t>(len)];
  }
  d.symbols_.resize(offset);
  std::array<std::uint32_t, 17> next{};
  for (int s = 0; s < 256; ++s) {
    const int len = lengths[static_cast<std::size_t>(s)];
    if (len == 0) continue;
    const std::uint32_t at = d.symbol_offset_[static_cast<std::size_t>(len)] +
                             next[static_cast<std::size_t>(len)]++;
    d.symbols_[at] = static_cast<std::uint8_t>(s);
  }
  constexpr int kTail = kMaxLength - kLookupBits;
  for (std::uint32_t prefix = 0; prefix < d.lookup_.size(); ++prefix) {
    const std::uint32_t hit = d.search(prefix << kTail, 1);
    if ((hit >> 8) <= kLookupBits) {
      d.lookup_[prefix] = static_cast<std::uint16_t>(hit);
    }
  }
  return d;
}

std::uint32_t HuffmanDecoder::search(std::uint32_t bits16,
                                     int from_len) const {
  for (int len = from_len; len <= kMaxLength; ++len) {
    const std::uint32_t code = bits16 >> (kMaxLength - len);
    const std::uint32_t n = count_[static_cast<std::size_t>(len)];
    const std::uint32_t first = first_code_[static_cast<std::size_t>(len)];
    if (n != 0 && code >= first && code < first + n) {
      return static_cast<std::uint32_t>(len) << 8 |
             symbols_[symbol_offset_[static_cast<std::size_t>(len)] +
                      (code - first)];
    }
  }
  return 0;
}

std::uint32_t HuffmanDecoder::match_long(std::uint32_t bits16) const {
  const std::uint32_t hit = search(bits16, kLookupBits + 1);
  check(hit != 0, "invalid Huffman code in bitstream");
  return hit;
}

std::uint8_t HuffmanDecoder::decode(BitReader& in) const {
  const std::uint32_t hit = match(in.peek(kMaxLength));
  // Bits past the end of the payload peek as zero; skip() rejects a code
  // that would need them, as the bit-serial reader's overrun did.
  in.skip(static_cast<int>(hit >> 8));
  return static_cast<std::uint8_t>(hit);
}

}  // namespace gb::codec
