// Struct-of-arrays flyweight client state for million-client worlds.
//
// The per-ClientNode object graph (deque, optionals, Csprng, metrics
// handles — kilobytes per client once the allocator has its say) is the
// right model for protocol-fidelity experiments at testbed scale, but it is
// two orders of magnitude too fat for the ROADMAP's "millions of users".
// ClientEngine keeps one client's entire hot state in ~26 bytes spread
// across packed parallel arrays — RNG stream, pool cursor, one
// pending-request slot with its issue timestamp — plus a 32-byte arena
// slot of cold key material, all in a handful of allocations for the whole
// population. The engine owns no behaviour: the sharded testbed
// (testbed/scale.h) drives it from simulator events, so the same state
// supports honest, flooding, and bad-uploader roles via the flag byte.
// The edge's view of each client (usage, strikes, penalty) lives in the
// shard's ClientEconomics table (cadet/economics.h), the same table the
// full protocol engines police with.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cadet/config.h"
#include "util/rng.h"
#include "util/time.h"

namespace cadet {

class ClientEngine {
 public:
  /// Role flags; packed into one byte per client.
  enum Flag : std::uint8_t {
    kProducer = 1u << 0,     ///< uploads entropy as well as requesting
    kBadUploader = 1u << 1,  ///< uploads fail the sanity battery
    kFlooder = 1u << 2,      ///< hostile request rate, ignores local pool
    /// Edge-side: the edge handled the in-flight request and drops its
    /// retransmissions (EdgeNode's ReplayFilter). Cleared by issue_request.
    kHandled = 1u << 3,
  };

  struct Config {
    std::uint64_t seed = 0;
    std::uint32_t first_id = 0;  ///< global id of client index 0
    std::uint32_t count = 0;
    std::uint32_t pool_capacity_bits =
        static_cast<std::uint32_t>(kClientBufferBits);
  };

  explicit ClientEngine(const Config& config);

  std::uint32_t count() const noexcept { return count_; }
  std::uint32_t global_id(std::uint32_t i) const noexcept {
    return first_id_ + i;
  }
  std::uint32_t pool_capacity_bits() const noexcept { return pool_capacity_; }

  // ---------------------------------------------------------------- flags
  std::uint8_t flags(std::uint32_t i) const noexcept { return flags_[i]; }
  bool has(std::uint32_t i, Flag flag) const noexcept {
    return (flags_[i] & flag) != 0;
  }
  void set_flag(std::uint32_t i, Flag flag) noexcept { flags_[i] |= flag; }
  void clear_flag(std::uint32_t i, Flag flag) noexcept {
    flags_[i] &= static_cast<std::uint8_t>(~flag);
  }

  // ------------------------------------------------------------ rng stream
  /// Each client owns an 8-byte SplitMix64 stream — enough randomness for
  /// arrival processes, and the whole population's generators fit in one
  /// vector instead of a Csprng apiece.
  std::uint64_t next_u64(std::uint32_t i) noexcept { return rng_[i].next(); }
  double uniform01(std::uint32_t i) noexcept {
    return static_cast<double>(next_u64(i) >> 11) * 0x1.0p-53;
  }
  /// Exponential inter-arrival draw in seconds.
  double next_exp(std::uint32_t i, double mean_s) noexcept {
    return -mean_s * std::log(1.0 - uniform01(i));
  }

  // ------------------------------------------------------------ pool cursor
  std::uint32_t pool_bits(std::uint32_t i) const noexcept {
    return pool_bits_[i];
  }
  /// Serve `bits` from the local pool; true when the pool covered it.
  bool pool_consume(std::uint32_t i, std::uint32_t bits) noexcept {
    if (pool_bits_[i] < bits) return false;
    pool_bits_[i] -= bits;
    return true;
  }
  void pool_credit(std::uint32_t i, std::uint32_t bits) noexcept {
    const std::uint64_t sum = std::uint64_t{pool_bits_[i]} + bits;
    pool_bits_[i] = sum > pool_capacity_ ? pool_capacity_
                                         : static_cast<std::uint32_t>(sum);
  }

  // ------------------------------------------------- pending-request slot
  /// One in-flight network request per client (the real ClientNode keeps a
  /// deque; at scale one slot + retries is the paper's behaviour anyway).
  /// `now` stamps the issue time so fulfillment latency is observable
  /// (pending_since). Returns the generation id replies must match.
  std::uint16_t issue_request(std::uint32_t i, std::uint16_t bits,
                              util::SimTime now = 0) noexcept {
    pending_bits_[i] = bits;
    pending_since_[i] = now;
    attempts_[i] = 0;
    clear_flag(i, kHandled);
    return ++pending_id_[i];
  }
  bool request_pending(std::uint32_t i) const noexcept {
    return pending_bits_[i] != 0;
  }
  bool pending_matches(std::uint32_t i, std::uint16_t id) const noexcept {
    return pending_bits_[i] != 0 && pending_id_[i] == id;
  }
  std::uint16_t pending_bits(std::uint32_t i) const noexcept {
    return pending_bits_[i];
  }
  /// Issue time of the slot's current request (the `now` passed to
  /// issue_request; survives until the next issue so a reply handler can
  /// read the latency after resolving the slot).
  util::SimTime pending_since(std::uint32_t i) const noexcept {
    return pending_since_[i];
  }
  /// Retry bookkeeping: returns the attempt count after the bump.
  std::uint8_t bump_attempts(std::uint32_t i) noexcept {
    return ++attempts_[i];
  }
  /// Fulfilled: credit the granted bits and clear the slot.
  void complete_request(std::uint32_t i, std::uint32_t grant_bits) noexcept {
    pool_credit(i, grant_bits);
    pending_bits_[i] = 0;
  }
  /// Fallback: clear the slot without credit.
  void cancel_request(std::uint32_t i) noexcept { pending_bits_[i] = 0; }

  /// Cold per-client state: 32 bytes of derived key/token material in one
  /// arena allocation (at scale, derivation at construction stands in for
  /// the registration handshake; the sharded harness documents that).
  static constexpr std::size_t kColdBytes = 32;
  const std::uint8_t* cold(std::uint32_t i) const noexcept {
    return cold_.get() + std::size_t{i} * kColdBytes;
  }

  /// Total heap bytes held by the packed arrays and the arena.
  std::size_t memory_bytes() const noexcept;

 private:
  std::uint32_t first_id_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t pool_capacity_ = 0;

  std::vector<util::SplitMix64> rng_;
  std::vector<std::uint32_t> pool_bits_;
  std::vector<std::uint16_t> pending_bits_;  // 0 = no request in flight
  std::vector<std::uint16_t> pending_id_;
  std::vector<util::SimTime> pending_since_;
  std::vector<std::uint8_t> attempts_;
  std::vector<std::uint8_t> flags_;
  std::unique_ptr<std::uint8_t[]> cold_;  // kColdBytes per client
};

}  // namespace cadet
