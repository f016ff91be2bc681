// FNV-1a 64-bit, fed incrementally.
//
// The repository's one fingerprint hash: run traces and the campaign and
// fuzz-phase trace hashes use it. Feeding bytes in pieces gives the same
// value as feeding their concatenation, which is what lets a trace be hashed
// as it is recorded, without ever serializing it.
#ifndef SRC_COMMON_FNV_H_
#define SRC_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace ctcommon {

class Fnv1a {
 public:
  void AddByte(uint8_t byte) { hash_ = (hash_ ^ byte) * kPrime; }
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      AddByte(static_cast<uint8_t>(c));
    }
  }
  // The eight bytes of `value`, least significant first.
  void AddU64(uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      AddByte(static_cast<uint8_t>(value >> shift));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace ctcommon

#endif  // SRC_COMMON_FNV_H_
