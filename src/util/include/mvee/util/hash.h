// Hash helpers.
//
// The wall-of-clocks agent maps sync-variable addresses onto a fixed pool of
// logical clocks using a cheap hash (paper §4.5: "Because we want to use a
// cheap hash function, hash collisions are quite likely"). We provide both
// the cheap address hash used on the agent hot path and FNV-1a for general
// hashing (syscall argument digests, VFS paths).

#ifndef MVEE_UTIL_HASH_H_
#define MVEE_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mvee {

// FNV-1a 64-bit over a byte range.
constexpr uint64_t FnvHashBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline uint64_t FnvHash(std::string_view s) { return FnvHashBytes(s.data(), s.size()); }

// Incremental FNV combiner for streaming digests.
class FnvDigest {
 public:
  void Update(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }

  template <typename T>
  void UpdateValue(const T& value) {
    Update(&value, sizeof(value));
  }

  uint64_t Finish() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Cheap address hash used by the wall-of-clocks agent. Discards the low
// 3 bits before mixing: the paper deliberately assigns adjacent 32-bit sync
// variables within the same 64-bit line to one clock (a CMPXCHG8B could
// modify both at once), so addresses are bucketed at 8-byte granularity.
constexpr uint64_t ClockAddressHash(uint64_t address) {
  uint64_t x = address >> 3;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// The wall-of-clocks address->clock map: the bucketed address hash folded
// onto a wall of `clock_count` clocks. The online clock engine and the
// offline trace recorder both map through here, so one address gets one
// clock id at one wall size in both.
inline uint32_t WallClockOf(const void* addr, size_t clock_count) {
  return static_cast<uint32_t>(ClockAddressHash(reinterpret_cast<uint64_t>(addr)) %
                               clock_count);
}

}  // namespace mvee

#endif  // MVEE_UTIL_HASH_H_
