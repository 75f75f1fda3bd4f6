// Edge serve core (paper §III-C): the one implementation of the edge's
// cache rules, driven by EdgeNode and by every ScaleWorld shard. It is
// sans-IO: it counts bytes; its driver passes the time in, holds the bytes
// (EdgeNode's byte FIFO) and carries out the decisions.
//
//   * Capacity is 4096 bits per served client. Requests over the heavy line
//     may not draw on the reserve (the bottom 25 %); others may.
//   * A request the cache cannot serve queues (FIFO) behind the next refill:
//     a miss costs a server round trip (Fig. 8a, 10a-b), not a failure.
//     Entries older than kEdgePendingTimeoutNs are discarded.
//   * A refill is asked for below the trigger (the fixed 25 %, or the
//     adaptive demand/RTT estimate) or while requests are queued. It tops
//     the cache up plus the honest request's bytes, up to what one refill
//     request carries (kMaxRefillBits). One is outstanding at a time; one
//     unanswered after kRefillTimeoutNs is declared lost on the next call.
//
// `Ticket` is what the driver needs to answer a queued request.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>

#include "cadet/config.h"
#include "util/time.h"

namespace cadet {

/// When to ask the server tier for more cache data (paper §III-C fixes the
/// trigger at 25 % of capacity and notes the problem "could potentially be
/// modeled as a flow control problem" — kAdaptive is that future-work
/// policy: it estimates local demand and the server round-trip time and
/// refills just early enough to cover the in-flight window).
enum class RefillPolicy { kFixedFraction, kAdaptive };

/// Heap bytes a std::deque holds, as libstdc++ lays it out: 512-byte nodes,
/// one kept even when the deque is empty, and a map of at least 8 node
/// pointers. Counts EdgeCache's queue and ScaleWorld's retry timers.
template <typename T>
std::size_t deque_memory_bytes(const std::deque<T>& queue) noexcept {
  constexpr std::size_t kPerNode = sizeof(T) < 512 ? 512 / sizeof(T) : 1;
  const std::size_t nodes = queue.size() / kPerNode + 1;
  return nodes * kPerNode * sizeof(T) +
         std::max<std::size_t>(8, nodes + 2) * sizeof(T*);
}

template <typename Ticket>
class EdgeCache {
 public:
  enum class Serve : std::uint8_t {
    kHit,             ///< served from the cache now
    kQueued,          ///< the cache is short: queued behind the next refill
    kReserveBlocked,  ///< over the line, kept off the reserve: queued
  };
  struct Refill {
    bool issue = false;     ///< ask the server for `bytes` now
    std::size_t bytes = 0;
    bool lost = false;      ///< the outstanding refill timed out
  };
  struct Decision {
    Serve serve = Serve::kHit;
    Refill refill;  ///< to carry out after the serve
  };

  /// Capacity is kClientBufferBits * num_clients (bits), converted to bytes.
  explicit EdgeCache(std::size_t num_clients,
                     RefillPolicy policy = RefillPolicy::kFixedFraction,
                     double reserve_fraction = kCacheReserveFraction,
                     double refill_fraction = kCacheRefillFraction)
      : policy_(policy), capacity_bytes_(kClientBufferBits / 8 * num_clients) {
    if (num_clients == 0) {
      throw std::invalid_argument("EdgeCache: need at least one client");
    }
    const double capacity = static_cast<double>(capacity_bytes_);
    reserve_bytes_ = static_cast<std::size_t>(reserve_fraction * capacity);
    refill_threshold_bytes_ =
        static_cast<std::size_t>(refill_fraction * capacity);
  }

  std::size_t capacity_bytes() const noexcept { return capacity_bytes_; }
  std::size_t size_bytes() const noexcept { return fill_; }
  std::size_t reserve_bytes() const noexcept { return reserve_bytes_; }
  std::size_t pending() const noexcept { return pending_.size(); }
  bool refill_outstanding() const noexcept { return outstanding_; }
  /// Adaptive-policy demand estimate (0 under the fixed trigger).
  double demand_rate_bps() const noexcept { return demand_rate_Bps_ * 8.0; }
  /// Heap bytes of the pending queue (the rest of the core is inline).
  std::size_t memory_bytes() const noexcept {
    return deque_memory_bytes(pending_);
  }

  /// Clamp a request to capacity minus reserve, so an ask larger than a
  /// small edge's cache cannot queue forever.
  std::size_t clamp(std::size_t bytes) const noexcept {
    return std::min(bytes, capacity_bytes_ - reserve_bytes_);
  }

  /// Feed the adaptive demand estimator an honest request that serve()
  /// does not see (EdgeNode's e2e relay): a decayed rate with a 30 s time
  /// constant, halving after ~20 quiet seconds.
  void note_demand(std::size_t bytes, util::SimTime now) {
    if (policy_ != RefillPolicy::kAdaptive) return;
    constexpr double kTauS = 30.0;
    const double dt = util::to_seconds(now - last_demand_at_);
    if (dt > 0) demand_rate_Bps_ *= std::exp(-dt / kTauS);
    demand_rate_Bps_ += static_cast<double>(bytes) / kTauS;
    last_demand_at_ = now;
  }

  /// Serve `bytes` (clamped) for a request whose heavy verdict is `over`,
  /// and decide the refill after it. A hit debits the fill; anything else
  /// queues `ticket`. An over-line ask neither feeds the demand estimate
  /// nor sizes the refill, or phantom demand would size every refill.
  Decision serve(std::size_t bytes, bool over, Ticket ticket,
                 util::SimTime now) {
    if (!over) note_demand(bytes, now);
    Decision out;
    if (fits(bytes, over)) {
      fill_ -= bytes;
    } else {
      out.serve = over && fill_ >= bytes ? Serve::kReserveBlocked
                                         : Serve::kQueued;
      pending_.push_back(Pending{std::move(ticket), bytes, over, now});
    }
    out.refill = refill_for(over ? 0 : bytes, now);
    return out;
  }

  /// The refill decision when no request is served: after a denial, or
  /// when a driver re-issues a refill it gave up on.
  Refill refill(util::SimTime now) { return refill_for(0, now); }

  /// Give the outstanding refill up (a driver's timer-driven re-issue).
  void drop_refill() noexcept { outstanding_ = false; }

  /// The server answered, with data or without; the round trip feeds a
  /// TCP-style smoothed RTT for the adaptive trigger.
  void refill_answered(util::SimTime now) noexcept {
    if (outstanding_) {
      refill_rtt_s_ = 0.875 * refill_rtt_s_ +
                      0.125 * util::to_seconds(now - refill_sent_at_);
    }
    outstanding_ = false;
  }

  /// Refill data landed; bytes beyond capacity are evicted (the driver
  /// drops its oldest).
  void insert(std::size_t bytes) noexcept {
    fill_ = std::min(capacity_bytes_, fill_ + bytes);
  }

  /// After insert(): drop expired entries, answer the queue in FIFO order
  /// through answer(ticket, bytes) until its head does not fit, and return
  /// the refill to issue while requests are still queued.
  template <typename Answer>
  Refill drain(util::SimTime now, Answer&& answer) {
    while (!pending_.empty() &&
           now - pending_.front().queued_at > kEdgePendingTimeoutNs) {
      pending_.pop_front();
    }
    while (!pending_.empty() &&
           fits(pending_.front().bytes, pending_.front().over)) {
      Pending head = std::move(pending_.front());
      pending_.pop_front();
      fill_ -= head.bytes;
      answer(head.ticket, head.bytes);
    }
    return pending_.empty() ? Refill{}
                            : refill_for(pending_.front().bytes, now);
  }

 private:
  struct Pending {
    Ticket ticket;
    std::size_t bytes = 0;
    bool over = false;
    util::SimTime queued_at = 0;
  };

  bool fits(std::size_t bytes, bool over) const noexcept {
    return fill_ >= (over ? reserve_bytes_ : 0) + bytes;
  }

  /// Ask below the trigger or while requests are queued, for the top-up
  /// plus `extra_bytes` (an honest request's, or the queue head's).
  Refill refill_for(std::size_t extra_bytes, util::SimTime now) {
    Refill out;
    if (outstanding_) {
      // UDP gives no delivery guarantee: a lost refill must not wedge the
      // edge and starve every queued client.
      if (now - refill_sent_at_ < kRefillTimeoutNs) return out;
      outstanding_ = false;
      out.lost = true;
    }
    const bool low = policy_ == RefillPolicy::kAdaptive
                         ? static_cast<double>(fill_) < adaptive_trigger()
                         : fill_ < refill_threshold_bytes_;
    if (!low && pending_.empty()) return out;
    out.issue = outstanding_ = true;
    out.bytes = std::min<std::size_t>(top_up() + extra_bytes,
                                      (kMaxRefillBits + 7u) / 8u);
    refill_sent_at_ = now;
    return out;
  }

  /// Adaptive trigger: the demand of the in-flight window, times a safety
  /// factor of 4, floored at 64 bytes.
  double adaptive_trigger() const noexcept {
    return std::max(demand_rate_Bps_ * refill_rtt_s_ * 4.0, 64.0);
  }

  /// Fixed: top up to capacity. Adaptive: to 30 s of demand, floored at one
  /// client buffer (tiny refills would thrash the server), capped at
  /// capacity.
  std::size_t top_up() const noexcept {
    if (policy_ != RefillPolicy::kAdaptive) return capacity_bytes_ - fill_;
    const std::size_t target = std::clamp<std::size_t>(
        static_cast<std::size_t>(demand_rate_Bps_ * 30.0),
        kClientBufferBits / 8, capacity_bytes_);
    return target - std::min(fill_, target);
  }

  RefillPolicy policy_;
  std::size_t capacity_bytes_;
  std::size_t reserve_bytes_ = 0;
  std::size_t refill_threshold_bytes_ = 0;
  std::size_t fill_ = 0;
  std::deque<Pending> pending_;
  bool outstanding_ = false;
  util::SimTime refill_sent_at_ = 0;
  double demand_rate_Bps_ = 0.0;
  util::SimTime last_demand_at_ = 0;
  double refill_rtt_s_ = 0.25;  // seeded with the paper's uncached average
};

}  // namespace cadet
