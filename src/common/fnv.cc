#include "src/common/fnv.h"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ctcommon {

const FnvFold& FoldOf(std::string_view text) {
  struct Cached {
    std::string text;
    FnvFold fold;
  };
  static std::mutex mutex;
  // Keys view into the entries' own text. Entries are never freed, so the
  // references handed out stay valid for the life of the process.
  static auto* cache = new std::unordered_map<std::string_view, std::unique_ptr<Cached>>();
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache->find(text);
  if (it != cache->end()) {
    return it->second->fold;
  }
  auto entry = std::make_unique<Cached>();
  entry->text = text;
  FnvFold& fold = entry->fold;
  for (size_t i = 0; i < text.size(); ++i) {
    fold.mul *= Fnv1a::kPrime;
  }
  // From a state with zero high bytes, h·Pⁿ is the low byte times Pⁿ, so the
  // table entry is what remains of the byte-wise result.
  for (uint64_t low = 0; low < 256; ++low) {
    Fnv1a hash;
    hash.hash_ = low;
    hash.Add(text);
    fold.add[low] = hash.value() - low * fold.mul;
  }
  const std::string_view key = entry->text;
  return cache->emplace(key, std::move(entry)).first->second->fold;
}

}  // namespace ctcommon
