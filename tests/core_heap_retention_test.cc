// Copyright (c) 2026 GARCIA reproduction authors.
// HeapRetention: the process-wide depth count under nesting and under two
// threads entering and leaving at once (run under TSan), and, on an
// uninstrumented glibc build, that a live scope keeps freed heap memory
// and that the last exit trims it.

#include "core/heap_retention.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace garcia::core {
namespace {

TEST(HeapRetentionTest, NestedScopesCountDepth) {
  ASSERT_EQ(HeapRetention::Depth(), 0);
  {
    HeapRetention outer;
    EXPECT_EQ(HeapRetention::Depth(), 1);
    {
      HeapRetention inner;
      EXPECT_EQ(HeapRetention::Depth(), 2);
    }
    EXPECT_EQ(HeapRetention::Depth(), 1);
  }
  EXPECT_EQ(HeapRetention::Depth(), 0);
}

TEST(HeapRetentionTest, TwoThreadsEnterAndLeaveConcurrently) {
  // Two trainers overlapping: each thread opens nested scopes over and over
  // while the other does the same; the count must end at zero and never
  // read below the scopes the reading thread itself holds.
  constexpr int kRounds = 2000;
  std::atomic<int> ready{0};
  std::atomic<bool> undercount{false};
  auto worker = [&] {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    for (int i = 0; i < kRounds; ++i) {
      HeapRetention outer;
      HeapRetention inner;
      if (HeapRetention::Depth() < 2) undercount.store(true);
      std::vector<float> scratch(1024 + i % 7, 1.0f);  // allocate inside
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_FALSE(undercount.load());
  EXPECT_EQ(HeapRetention::Depth(), 0);
}

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
// Sanitizers replace malloc, so glibc's heap (and mallinfo2) only reflect
// the program's allocations on an uninstrumented build.
TEST(HeapRetentionTest, ScopeKeepsFreedHeapAndLastExitTrimsIt) {
  // 32 blocks of 512 KiB: above glibc's initial mmap threshold, below the
  // scope's, so inside the scope they come from the heap.
  constexpr size_t kBlocks = 32;
  constexpr size_t kBlockBytes = size_t{512} << 10;
  constexpr size_t kTotal = kBlocks * kBlockBytes;
  malloc_trim(0);  // start from a trimmed heap
  size_t retained = 0;
  {
    HeapRetention scope;
    const struct mallinfo2 before = mallinfo2();
    // On the stack: a growing vector would land above the blocks and pin
    // the heap top.
    void* blocks[kBlocks];
    for (void*& p : blocks) {
      p = std::malloc(kBlockBytes);
      ASSERT_NE(p, nullptr);
      std::memset(p, 0x5a, kBlockBytes);
    }
    const struct mallinfo2 full = mallinfo2();
    EXPECT_EQ(full.hblks, before.hblks) << "blocks were mmapped, not heap";
    for (void* p : blocks) std::free(p);
    const struct mallinfo2 freed = mallinfo2();
    // Every block is free, and the heap still holds them.
    EXPECT_GE(freed.arena, before.arena + kTotal);
    EXPECT_GE(freed.fordblks, kTotal);
    retained = freed.arena;
  }
  // The last exit trims the 16 MiB of free top back to the kernel.
  EXPECT_LT(mallinfo2().arena + kTotal / 2, retained);
}
#endif

}  // namespace
}  // namespace garcia::core
