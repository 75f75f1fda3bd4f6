#include "cadet/client_engine.h"

namespace cadet {

ClientEngine::ClientEngine(const Config& config)
    : first_id_(config.first_id),
      count_(config.count),
      pool_capacity_(config.pool_capacity_bits),
      rng_(config.count, util::SplitMix64(0)),
      pool_bits_(config.count, 0),
      pending_bits_(config.count, 0),
      pending_id_(config.count, 0),
      pending_since_(config.count, 0),
      attempts_(config.count, 0),
      flags_(config.count, 0),
      cold_(new std::uint8_t[std::size_t{config.count} * kColdBytes]) {
  for (std::uint32_t i = 0; i < count_; ++i) {
    // Decorrelate the streams: seed ^ f(global id) through one SplitMix64
    // whitening step, then derive the 32 cold bytes from the same chain so
    // each client's key material is a pure function of (seed, id).
    util::SplitMix64 chain(config.seed ^
                           (0x9e3779b97f4a7c15ULL * (first_id_ + i + 1)));
    rng_[i] = util::SplitMix64(chain.next());
    std::uint8_t* cold = cold_.get() + std::size_t{i} * kColdBytes;
    for (std::size_t w = 0; w < kColdBytes / 8; ++w) {
      const std::uint64_t word = chain.next();
      for (std::size_t b = 0; b < 8; ++b) {
        cold[w * 8 + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
  }
}

std::size_t ClientEngine::memory_bytes() const noexcept {
  return rng_.capacity() * sizeof(util::SplitMix64) +
         pool_bits_.capacity() * sizeof(std::uint32_t) +
         pending_bits_.capacity() * sizeof(std::uint16_t) +
         pending_id_.capacity() * sizeof(std::uint16_t) +
         pending_since_.capacity() * sizeof(util::SimTime) +
         attempts_.capacity() * sizeof(std::uint8_t) +
         flags_.capacity() * sizeof(std::uint8_t) +
         std::size_t{count_} * kColdBytes;
}

}  // namespace cadet
