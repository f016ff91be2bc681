// Unit tests for FNV-1a folds: feeding a string through its fold equals
// feeding it byte by byte from every low byte of the hash state, and the
// process-wide fold cache hands out one table per text, also under
// concurrent first requests.
#include "src/common/fnv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace ctcommon {
namespace {

TEST(FnvFold, FoldedHashEqualsByteWiseHashFromEveryLowByte) {
  // One byte fed to the offset basis reaches every low byte of the state:
  // XOR with the byte and multiplying by the odd prime are both bijections
  // on the low byte.
  std::set<uint64_t> low_bytes;
  for (int first = 0; first < 256; ++first) {
    Fnv1a start;
    start.AddByte(static_cast<uint8_t>(first));
    low_bytes.insert(start.value() & 0xff);
  }
  ASSERT_EQ(low_bytes.size(), 256u);

  std::string text;
  for (size_t length = 0; length <= 64; ++length) {
    const FnvFold& fold = FoldOf(text);
    for (int first = 0; first < 256; ++first) {
      Fnv1a folded;
      Fnv1a bytewise;
      folded.AddByte(static_cast<uint8_t>(first));
      bytewise.AddByte(static_cast<uint8_t>(first));
      folded.Add(fold);
      bytewise.Add(text);
      ASSERT_EQ(folded.value(), bytewise.value()) << "length " << length << ", first " << first;
    }
    // Bytes across the whole range, NUL and 0xff included.
    text.push_back(static_cast<char>((length * 97 + 13) % 256));
  }
}

TEST(FnvFold, EmptyTextFoldsToTheIdentity) {
  const FnvFold& empty = FoldOf("");
  EXPECT_EQ(empty.mul, 1u);
  for (const uint64_t add : empty.add) {
    ASSERT_EQ(add, 0u);
  }
  Fnv1a hash;
  hash.Add("abc");
  const uint64_t before = hash.value();
  hash.Add(empty);
  EXPECT_EQ(hash.value(), before);
}

TEST(FnvFold, EqualTextsShareOneFold) {
  const std::string first = "node1:42349";
  const std::string second = "node1:" + std::to_string(42349);
  EXPECT_EQ(&FoldOf(first), &FoldOf(second));
  EXPECT_NE(&FoldOf(first), &FoldOf("node2:42349"));
}

TEST(FnvFold, ConcurrentFirstRequestsShareOneFold) {
  // Texts no other test folds, so the threads race to build each table.
  constexpr int kThreads = 4;
  constexpr int kTexts = 64;
  std::vector<std::vector<const FnvFold*>> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kTexts; ++i) {
        seen[t].push_back(&FoldOf("concurrent-" + std::to_string(i)));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  Fnv1a folded;
  Fnv1a bytewise;
  folded.Add(*seen[0][7]);
  bytewise.Add("concurrent-7");
  EXPECT_EQ(folded.value(), bytewise.value());
}

}  // namespace
}  // namespace ctcommon
