// FNV-1a 64-bit, fed incrementally.
//
// The repository's one fingerprint hash: run traces and the campaign and
// fuzz-phase trace hashes use it. Feeding bytes in pieces gives the same
// value as feeding their concatenation, which is what lets a trace be hashed
// as it is recorded, without ever serializing it.
//
// A fixed string can also be fed in one step, through its fold (FoldOf).
// Feeding a string s of n bytes from any state h gives h·Pⁿ + C_s[h & 0xff]
// (mod 2⁶⁴): XOR with a byte changes only the low byte, and a product's low
// byte depends only on its factors' low bytes, so the low byte's path
// through s, and every term that path adds, depends only on h's low byte.
#ifndef SRC_COMMON_FNV_H_
#define SRC_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace ctcommon {

// The effect of feeding one fixed byte string: the state h becomes
// h * mul + add[h & 0xff]. The empty string's fold is the identity.
struct FnvFold {
  uint64_t mul = 1;
  uint64_t add[256] = {};
};

class Fnv1a {
 public:
  void AddByte(uint8_t byte) { hash_ = (hash_ ^ byte) * kPrime; }
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      AddByte(static_cast<uint8_t>(c));
    }
  }
  // Feeds the string `fold` was built from: one multiply, one load, one add.
  void Add(const FnvFold& fold) { hash_ = hash_ * fold.mul + fold.add[hash_ & 0xff]; }
  // The eight bytes of `value`, least significant first.
  void AddU64(uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      AddByte(static_cast<uint8_t>(value >> shift));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  friend const FnvFold& FoldOf(std::string_view text);

  static constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t hash_ = 1469598103934665603ull;
};

// The fold of `text`, built on first request and kept for the life of the
// process (2 KB per distinct text): every run of a campaign shares one table
// per string. Thread-safe; equal texts get the same object.
const FnvFold& FoldOf(std::string_view text);

}  // namespace ctcommon

#endif  // SRC_COMMON_FNV_H_
