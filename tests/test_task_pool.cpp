// util::TaskPool: the executor that steps ScaleWorld's shards. Every index
// runs exactly once per run() on any split, the barrier survives spinning,
// parking and waking, a pool can be destroyed with its workers parked, and
// plain writes made in one run() are visible to the next (the ordering the
// e2e benchmark's per-shard timers rely on). `ctest --preset tsan-scale`
// runs these under ThreadSanitizer.
#include "util/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace cadet::util {
namespace {

TEST(TaskPool, EveryIndexRunsOncePerRun) {
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    TaskPool pool(workers);
    ASSERT_EQ(pool.workers(), workers);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, workers - 1, workers,
          std::size_t{978}, std::size_t{1001}}) {
      const auto hits = std::make_unique<std::atomic<int>[]>(count + 1);
      for (int round = 1; round <= 2; ++round) {
        pool.run(count, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), round)
              << "workers " << workers << " count " << count << " index "
              << i;
        }
      }
    }
  }
}

TEST(TaskPool, BackToBackRunsAlternatingSizes) {
  // Tiny runs leave most workers idle, large ones keep all busy; the
  // occasional pause outlasts the spin, so workers park and are woken.
  constexpr std::size_t kLarge = 978;
  TaskPool pool(4);
  std::vector<std::uint64_t> sums(kLarge, 0);  // plain: ordered by run()
  for (int round = 0; round < 10'000; ++round) {
    const std::size_t count = round % 2 == 0 ? 2 : kLarge;
    pool.run(count, [&](std::size_t i) { sums[i] += i + 1; });
    if (round % 1000 == 999) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(sums[0], 10'000u);
  EXPECT_EQ(sums[1], 2 * 10'000u);
  for (std::size_t i = 2; i < kLarge; ++i) {
    ASSERT_EQ(sums[i], (i + 1) * 5'000u) << i;
  }
}

TEST(TaskPool, DestroysWithWorkersParked) {
  { TaskPool never_ran(4); }
  auto pool = std::make_unique<TaskPool>(4);
  std::atomic<int> ran{0};
  pool->run(8, [&](std::size_t) { ran.fetch_add(1); });
  // Long past the spin: every worker is parked in atomic::wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.reset();  // must wake and join them, not hang
  EXPECT_EQ(ran.load(), 8);
}

TEST(TaskPool, PlainWritesAreVisibleToTheNextRun) {
  // Each run reads what the previous run wrote at indices another worker
  // owned, through plain (non-atomic) memory.
  constexpr std::size_t kCount = 1001;
  TaskPool pool(4);
  std::vector<std::size_t> cells(kCount, 0);
  std::vector<std::size_t> seen(kCount, 0);
  for (std::size_t round = 1; round <= 200; ++round) {
    pool.run(kCount, [&](std::size_t i) { cells[i] = round * kCount + i; });
    pool.run(kCount, [&](std::size_t i) {
      seen[i] = cells[(i + kCount / 2) % kCount];
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(seen[i], round * kCount + (i + kCount / 2) % kCount)
          << "round " << round << " index " << i;
    }
  }
}

}  // namespace
}  // namespace cadet::util
