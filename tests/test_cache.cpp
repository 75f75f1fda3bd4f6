#include "cadet/cache.h"

#include <gtest/gtest.h>

#include <vector>

namespace cadet {
namespace {

using Cache = EdgeCache<int>;
using Serve = Cache::Serve;

TEST(EdgeCache, CapacityScalesWithClients) {
  // 4096 bits per client (paper III-C).
  EXPECT_EQ(Cache(1).capacity_bytes(), 512u);
  EXPECT_EQ(Cache(11).capacity_bytes(), 11u * 512u);
}

TEST(EdgeCache, StartsEmptyAndNeedsRefill) {
  Cache cache(4);
  EXPECT_EQ(cache.size_bytes(), 0u);
  const Cache::Refill refill = cache.refill(0);
  EXPECT_TRUE(refill.issue);
  EXPECT_EQ(refill.bytes, cache.capacity_bytes());
  EXPECT_TRUE(cache.refill_outstanding());
}

TEST(EdgeCache, InsertAndTakeFifo) {
  // The core counts bytes; which bytes a take serves is EdgeNode's
  // (EdgeNode.ServesOldestSurvivingBytesInArrivalOrder).
  Cache cache(4);
  cache.insert(5);
  EXPECT_EQ(cache.serve(3, /*over=*/false, 0, 0).serve, Serve::kHit);
  EXPECT_EQ(cache.size_bytes(), 2u);
  // Requests the cache cannot serve queue, and a landing refill answers
  // them in arrival order.
  EXPECT_EQ(cache.serve(10, false, 1, 0).serve, Serve::kQueued);
  EXPECT_EQ(cache.serve(20, false, 2, 0).serve, Serve::kQueued);
  EXPECT_EQ(cache.serve(2, false, 3, 0).serve, Serve::kHit);  // fits now
  EXPECT_EQ(cache.pending(), 2u);
  cache.insert(30);
  std::vector<std::pair<int, std::size_t>> answered;
  const Cache::Refill next = cache.drain(0, [&](int ticket, std::size_t n) {
    answered.emplace_back(ticket, n);
  });
  EXPECT_EQ(answered, (std::vector<std::pair<int, std::size_t>>{{1, 10},
                                                                {2, 20}}));
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_FALSE(next.issue);  // nothing left queued
}

TEST(EdgeCache, RegularUserCanDrainToEmpty) {
  Cache cache(2);
  cache.insert(100);
  EXPECT_EQ(cache.serve(100, /*over=*/false, 0, 0).serve, Serve::kHit);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(EdgeCache, HeavyUserBlockedFromReserve) {
  Cache cache(2);  // capacity 1024, reserve 256
  ASSERT_EQ(cache.reserve_bytes(), 256u);
  cache.insert(300);
  // Over-line request that would dip below the 256-byte reserve: blocked
  // and queued behind the next refill.
  EXPECT_EQ(cache.serve(100, /*over=*/true, 0, 0).serve,
            Serve::kReserveBlocked);
  EXPECT_EQ(cache.pending(), 1u);
  // A smaller over-line request that leaves the reserve intact: allowed.
  EXPECT_EQ(cache.serve(44, /*over=*/true, 1, 0).serve, Serve::kHit);
  // Regular users can still eat into the reserve.
  EXPECT_EQ(cache.serve(200, /*over=*/false, 2, 0).serve, Serve::kHit);
  EXPECT_EQ(cache.size_bytes(), 56u);
  // Short of the request itself, an over-line miss is a plain miss.
  EXPECT_EQ(cache.serve(100, /*over=*/true, 3, 0).serve, Serve::kQueued);
}

TEST(EdgeCache, FailedTakeLeavesCacheIntact) {
  Cache cache(2);
  cache.insert(100);
  EXPECT_EQ(cache.serve(500, false, 0, 0).serve, Serve::kQueued);
  EXPECT_EQ(cache.size_bytes(), 100u);
  EXPECT_EQ(cache.pending(), 1u);
}

TEST(EdgeCache, RefillThresholdAtQuarter) {
  Cache cache(2);  // capacity 1024, threshold 256
  cache.insert(256);
  EXPECT_FALSE(cache.refill(0).issue);
  const Cache::Decision below = cache.serve(1, false, 0, 0);
  ASSERT_EQ(below.serve, Serve::kHit);
  EXPECT_TRUE(below.refill.issue);
}

TEST(EdgeCache, RefillAmountTopsUp) {
  Cache cache(2);
  cache.insert(200);
  // Top-up plus the honest miss's bytes...
  EXPECT_EQ(cache.serve(300, /*over=*/false, 0, 0).refill.bytes,
            1024u - 200u + 300u);
  // ...but an over-line ask does not size the refill.
  Cache heavy(2);
  heavy.insert(200);
  EXPECT_EQ(heavy.serve(300, /*over=*/true, 0, 0).refill.bytes, 1024u - 200u);
  // Capped at what one refill request carries.
  Cache big(64);
  EXPECT_EQ(big.refill(0).bytes, (kMaxRefillBits + 7u) / 8u);
}

TEST(EdgeCache, OverLineAsksFeedNoDemand) {
  // Under the adaptive policy only honest asks feed the demand estimate
  // that sizes the top-up.
  Cache cache(4, RefillPolicy::kAdaptive);
  (void)cache.serve(100, /*over=*/true, 0, 0);
  EXPECT_EQ(cache.demand_rate_bps(), 0.0);
  (void)cache.serve(100, /*over=*/false, 1, 0);
  EXPECT_GT(cache.demand_rate_bps(), 0.0);
}

TEST(EdgeCache, EvictsOldestBeyondCapacity) {
  // The fill stays at capacity; EdgeNode drops the oldest bytes
  // (EdgeNode.ServesOldestSurvivingBytesInArrivalOrder).
  Cache cache(1);  // 512 bytes
  cache.insert(512);
  cache.insert(10);
  EXPECT_EQ(cache.size_bytes(), 512u);
}

TEST(EdgeCache, CustomFractions) {
  Cache cache(2, RefillPolicy::kFixedFraction, /*reserve_fraction=*/0.5,
              /*refill_fraction=*/0.75);
  EXPECT_EQ(cache.reserve_bytes(), 512u);
  EXPECT_EQ(cache.clamp(4096), 512u);  // capacity minus reserve
  cache.insert(700);
  EXPECT_TRUE(cache.refill(0).issue);  // 700 < 768
}

TEST(EdgeCache, RejectsZeroClients) {
  EXPECT_THROW(Cache(0), std::invalid_argument);
}

TEST(EdgeCache, QueuedRequestsAskForARefill) {
  Cache cache(4);  // capacity 2048, threshold and reserve 512
  cache.insert(2048);
  const Cache::Decision first = cache.serve(1800, false, 0, 0);
  EXPECT_EQ(first.serve, Serve::kHit);
  ASSERT_TRUE(first.refill.issue);  // 248 < 512
  cache.refill_answered(1);
  cache.insert(2048);
  // Above the trigger, yet a queued request still asks for the next refill.
  const Cache::Decision hit = cache.serve(100, true, 7, 2);
  ASSERT_EQ(hit.serve, Serve::kHit);
  EXPECT_FALSE(hit.refill.issue);
  const Cache::Decision blocked = cache.serve(1500, true, 8, 2);
  ASSERT_EQ(blocked.serve, Serve::kReserveBlocked);
  EXPECT_TRUE(blocked.refill.issue);
  EXPECT_EQ(blocked.refill.bytes, 100u);  // the top-up: the ask is over-line
  // The landing refill serves the blocked head once the reserve holds.
  cache.refill_answered(3);
  cache.insert(100);
  int answered = -1;
  const Cache::Refill next =
      cache.drain(3, [&](int ticket, std::size_t) { answered = ticket; });
  EXPECT_EQ(answered, 8);
  EXPECT_EQ(cache.size_bytes(), 548u);
  EXPECT_FALSE(next.issue);
}

TEST(EdgeCache, OneOutstandingRefillUntilItTimesOut) {
  Cache cache(2);
  ASSERT_TRUE(cache.refill(0).issue);
  // Outstanding: no second refill, however low the cache.
  EXPECT_FALSE(cache.refill(kRefillTimeoutNs - 1).issue);
  EXPECT_FALSE(cache.refill(kRefillTimeoutNs - 1).lost);
  // Unanswered past the timeout: declared lost and re-issued.
  const Cache::Refill reissue = cache.refill(kRefillTimeoutNs);
  EXPECT_TRUE(reissue.lost);
  EXPECT_TRUE(reissue.issue);
  // A timer-driven give-up frees the slot at once.
  cache.drop_refill();
  EXPECT_FALSE(cache.refill_outstanding());
  EXPECT_TRUE(cache.refill(kRefillTimeoutNs + 1).issue);
}

TEST(EdgeCache, StaleQueuedRequestsAreDiscarded) {
  Cache cache(2);
  ASSERT_EQ(cache.serve(64, false, 1, 0).serve, Serve::kQueued);
  ASSERT_EQ(cache.serve(64, false, 2, kEdgePendingTimeoutNs).serve,
            Serve::kQueued);
  cache.insert(1024);
  std::vector<int> answered;
  (void)cache.drain(kEdgePendingTimeoutNs + 1, [&](int ticket, std::size_t) {
    answered.push_back(ticket);
  });
  EXPECT_EQ(answered, std::vector<int>{2});
  EXPECT_EQ(cache.size_bytes(), 1024u - 64u);
}

TEST(EdgeCache, MemoryCountsThePendingQueue) {
  // An empty queue still holds a node and a map; a long one holds one node
  // per 512 bytes of entries.
  Cache cache(2);
  const std::size_t empty = cache.memory_bytes();
  EXPECT_GE(empty, 512u);
  for (int ticket = 0; ticket < 1000; ++ticket) {
    ASSERT_EQ(cache.serve(64, false, ticket, 0).serve, Serve::kQueued);
  }
  // Each entry holds at least its byte count and queue time.
  EXPECT_GE(cache.memory_bytes(), empty + 1000 * 16);
}

}  // namespace
}  // namespace cadet
