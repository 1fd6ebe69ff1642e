// Helpers shared by several test binaries: a byte hash for pinning pixels
// and wire bytes, and an address-space cap for decoder fuzzing.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <span>

namespace gb::test_support {

// 64-bit FNV-1a over a byte stream.
class Fnv1a {
 public:
  void add(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  void add_u64(std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    add(le);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Caps this process's address space a little above its current size for the
// guard's lifetime, so a count read off the wire that sizes an allocation
// before validation fails fast (std::bad_alloc) instead of committing
// gigabytes. Only this test process is limited; the soft limit is restored.
class AddressSpaceCap {
 public:
  AddressSpaceCap() {
    getrlimit(RLIMIT_AS, &saved_);
    std::size_t vm_pages = 0;
    std::ifstream("/proc/self/statm") >> vm_pages;
    const auto page = static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
    rlimit capped = saved_;
    capped.rlim_cur = std::min<rlim_t>(
        saved_.rlim_max, static_cast<rlim_t>(vm_pages) * page + (1ull << 30));
    setrlimit(RLIMIT_AS, &capped);
  }
  ~AddressSpaceCap() { setrlimit(RLIMIT_AS, &saved_); }
  AddressSpaceCap(const AddressSpaceCap&) = delete;
  AddressSpaceCap& operator=(const AddressSpaceCap&) = delete;

 private:
  rlimit saved_{};
};

}  // namespace gb::test_support
