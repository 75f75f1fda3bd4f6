// Protocol-wide constants and tunables.
//
// Values follow the paper's prototype: edge cache sized at 4096 bits per
// client with a 25 % refill trigger (§III-C), EWMA usage decay 0.96 with a
// mu+3sigma heavy threshold (§III-C), penalty drop_thresh 10 / max_penalty 35
// (§IV-A). Cycle costs calibrate the simulator to the timings the paper
// reports for its Python prototype (e.g. sanity checks ~75 ms per 256-bit
// block at 300 MHz, D.Req ~0.12 s cached vs ~0.25 s uncached in Fig. 8a).
#pragma once

#include <cstddef>
#include <cstdint>

namespace cadet {

inline constexpr std::uint8_t kProtocolVersion = 1;

// ---------------------------------------------------------------- caching
/// Client randomness-buffer size; the edge cache reserves one of these per
/// client (paper: "4096 bits, the typical size of a client's own randomness
/// buffer, multiplied by the number of clients").
inline constexpr std::size_t kClientBufferBits = 4096;

/// Edge requests a refill when the cache drops below this fraction.
inline constexpr double kCacheRefillFraction = 0.25;

/// Largest refill one request carries (its 16-bit bit count), so one edge's
/// top-up cannot drain the whole server pool.
inline constexpr std::uint16_t kMaxRefillBits = 0xffff;

/// Fraction of the edge cache set aside for regular users when heavy users
/// have drained the open portion (§III-C reserve-cache).
inline constexpr double kCacheReserveFraction = 0.25;

// ------------------------------------------------------------ usage score
/// EWMA decay (paper Eq. 1, empirically chosen 0.96).
inline constexpr double kUsageDecay = 0.96;

/// Heavy-user threshold: this many standard deviations above the mean.
inline constexpr double kUsageSigmaThreshold = 3.0;

/// Relative floor on the heavy-user test: a device is only heavy when its
/// score also exceeds this multiple of the median score. The MAD threshold
/// alone is a pure spread test — under attacker-driven decay pressure the
/// cohort's scores compress until honest Poisson double-fires clear
/// median + 3 sigma even though they are barely above typical usage. The
/// ratio floor pins "heavy" to "several times the typical user", which is
/// what §III-C means by a heavy user. A zero median (idle network) keeps
/// the stddev-fallback single-spike behaviour unchanged.
inline constexpr double kUsageHeavyMedianRatio = 4.0;

/// Consecutive over-threshold requests before the edge escalates from
/// reserve-blocking to denying a heavy user outright. The instantaneous
/// flag is noisy — an honest Poisson double-fire can cross the line for a
/// packet or two, and in the first seconds of a run the whole cohort's
/// scores are still near zero, so an early burst clears the relative
/// floor easily — so full denial (which costs the client a retry-and-
/// fallback round) waits for a sustained signal. Five consecutive
/// over-line requests is ~10 s of sustained bursting for an honest-rate
/// client but well under a second for a flooding attacker; and because
/// strikes persist while a client is being denied (only a request judged
/// normal resets them), a larger limit delays just the FIRST denial, not
/// the steady-state policing.
inline constexpr int kUsageHeavyStrikeLimit = 5;

/// Full denial additionally requires the client to be OBSERVABLY fast:
/// at least kUsageHeavyDenyWindow request arrivals whose measured rate is
/// >= kUsageHeavyDenyMinRateHz. The EWMA score and its robust threshold
/// are purely relative — under a regime change (an attack starting, the
/// first seconds of a run) an honest client can sustain a heavy-looking
/// relative episode for several requests — but wall-clock arrival rate is
/// absolute: an honest device asks a few times a second at most, while
/// flooding pays off only well above that. A client below the rate floor
/// is at worst reserve-blocked (stage 1), never denied. Residual risk: an
/// attacker throttled just under the floor evades denial, but at that
/// rate it is within an order of magnitude of honest demand and the
/// reserve + demand-estimator exclusion bound the damage.
/// Sizing: at an honest ~0.5 Hz Poisson request rate, 12 arrivals inside
/// 4.4 s (the span that reads as 2.5 Hz) is a ~1e-6 tail per window —
/// negligible even across a 50-seed sweep of 36 honest clients — while
/// any profitable flood sits at several Hz and fills the window in a few
/// seconds.
inline constexpr std::size_t kUsageHeavyDenyWindow = 12;
inline constexpr double kUsageHeavyDenyMinRateHz = 2.5;

// ---------------------------------------------------------------- penalty
inline constexpr double kDropThresh = 10.0;
inline constexpr double kMaxPenalty = 35.0;

/// If a cache-refill response has not arrived after this long, the edge
/// considers the request lost (UDP gives no delivery guarantee) and allows
/// a new refill to be issued. Checked lazily on packet processing.
inline constexpr std::int64_t kRefillTimeoutNs = 2'000'000'000;  // 2 s

/// Queued client requests the edge has not been able to serve after this
/// long are discarded (the client will have expired its own side already).
/// Bounds the pending queue against clients that vanish.
inline constexpr std::int64_t kEdgePendingTimeoutNs = 8'000'000'000;  // 8 s

// ------------------------------------------------------ retry / backoff
// Timer-driven robustness (engines with a wired EngineTimer). Delays double
// per attempt with ±10 % deterministic jitter so synchronized clients do
// not retransmit in lockstep.

/// First client request retransmission fires this long after the request.
inline constexpr std::int64_t kRequestRetryBaseNs = 1'000'000'000;  // 1 s

/// Retransmissions per request before degrading to the local CSPRNG
/// fallback. With a 1 s base they go out about 1, 3 and 7 s after the
/// request and the fallback fires after the last wait, at about 15 s. So a
/// client with any packet in or out between 10 s and 15 s hits the lazy
/// 10 s request_timeout first and ends the request as request_expired.
inline constexpr std::size_t kMaxRequestRetries = 3;

/// Registration handshakes re-issued (fresh keypair + nonce) when no
/// acknowledgement arrived. Bounded so a dead server cannot spin timers
/// forever.
inline constexpr std::size_t kMaxRegRetries = 5;
inline constexpr std::int64_t kRegRetryBaseNs = 1'000'000'000;  // 1 s

/// Consecutive timer-driven refill re-issues at the edge before the timer
/// chain stops (lazy traffic-driven refill still re-arms it later).
inline constexpr std::size_t kMaxRefillRetries = 6;

/// Consecutive failures to open sealed server data (the server lost the
/// esk, e.g. in a restart) after which the edge re-registers.
inline constexpr std::size_t kReregisterAfterFailures = 3;

// ----------------------------------------------------------------- upload
/// Edge forwards its upload buffer to the server once it holds this many
/// payload bytes ("after enough entropy data has accumulated", §III-A).
inline constexpr std::size_t kUploadForwardBytes = 1024;

// ------------------------------------------------------- cycle-cost model
// Costs are in CPU cycles; the simulator divides by the tier clock rate
// (20 MHz client / 300 MHz edge / 600 MHz server). Calibrated so the
// reproduction matches the paper's measured protocol-operation times.
namespace cost {

/// Serializing an outgoing packet (craft reply / request).
inline constexpr double kCraftPacket = 1.0e6;

/// Parsing + dispatching an incoming packet (packet processor).
inline constexpr double kProcessPacket = 1.0e6;

/// Sanity-check battery, per payload byte. Paper §VI-C1: 70-80 ms for
/// 256 bits at 300 MHz => ~22.5e6 cycles / 32 bytes.
inline constexpr double kSanityPerByte = 7.0e5;

/// Mixing received entropy into the edge cache, per byte. Dominates the
/// cache-miss path (edge mixing, Fig. 2 downstream step 5): a full ~5.7 kB
/// refill costs ~23e6 cycles => ~76 ms at the 300 MHz edge, which is what
/// separates the cached (~0.12 s) and uncached (~0.25 s) request times.
inline constexpr double kEdgeMixPerByte = 4.0e3;

/// Server mixing-function cost per input byte (hash folds).
inline constexpr double kServerMixPerByte = 1.0e4;

/// One X25519 scalar multiplication (keygen or shared secret). ~30 ms on
/// the 20 MHz client: two of these plus packet handling keeps client
/// initialization just under the paper's 0.25 s ceiling.
inline constexpr double kX25519 = 0.6e6;

/// Hashing cost for token operations, per invocation.
inline constexpr double kTokenHash = 2.0e5;

/// Symmetric seal/open, per byte.
inline constexpr double kSealPerByte = 2.0e3;

/// Quality-check battery per pool byte (runs on the 600 MHz server).
inline constexpr double kQualityPerByte = 1.0e5;

}  // namespace cost

}  // namespace cadet
