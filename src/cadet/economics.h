// Client economics (paper §III-C Eq. 1, §IV-A Eq. 2 and Table I): the one
// per-client table every tier polices with. EdgeNode keeps usage, penalty,
// strikes and arrivals in it, ServerNode its upload penalties, and the
// sharded ScaleWorld one table per edge shard. Slots are dense indices into
// struct-of-arrays state; the full engines map client ids to slots on
// first sight, ScaleWorld sizes the table up front and uses the client
// index as the slot.
//
// Usage score (Eq. 1):  US_t = usage_t + decay * US_{t-1}
//
// The step counter t advances every time the owner processes accepted
// work, so the decay rate adapts to network speed. Decay is lazy: with
// f_t = decay^-t the table stores raw_i = US_i * f_t, a record adds
// usage * f_t, and a tick only advances f. When f passes kRenormAt every
// raw value (and the cached heavy line) is divided by f and f restarts at
// 1, so a tick is O(1) amortised and no score is ever decayed one by one.
//
// Heavy users: a client is heavy when its score exceeds the paper's "3
// standard deviations above the mean usage score" threshold — computed
// here with the robust estimators median and MAD (threshold = median +
// k * 1.4826 * MAD). The robust form is load-bearing, not cosmetic: with
// classical mean/sigma over n clients, the largest achievable z-score is
// (n-1)/sqrt(n) (~2.47 for n=7), because an outlier inflates the sigma it
// is judged against — one or two heavy users among 8 clients could *never*
// clear 3 sigma, and Fig. 8c would be irreproducible. Median/MAD ignore a
// heavy minority, so the threshold tracks normal-user behaviour exactly as
// the figure shows. The line is also floored at kUsageHeavyMedianRatio x
// the median. Every one of these statistics is homogeneous in the scores,
// so the line is computed on the raw values directly: one nth_element
// pass, no pow. The cohort is the set of slots with recorded usage; a slot
// that only ever uploaded does not add a zero to the median.
//
// Policing is two-stage. A request over the line is reserve-blocked at the
// edge (§III-C) and earns a strike; kUsageHeavyStrikeLimit consecutive
// strikes from a client whose arrival rate also exceeds
// kUsageHeavyDenyMinRateHz (a leaky bucket that drains at that rate, adds
// one per arrival and reads fast at kUsageHeavyDenyWindow - 1) deny its
// requests outright.
//
// Penalties (§IV-A): every upload's sanity-check outcome adjusts the
// uploader's penalty score per the active Table I scheme. Scores in
// [0, drop_thresh) are trusted; in [drop_thresh, max_penalty) packets are
// randomly ignored with probability drop_percent (ignored packets give the
// device no chance to redeem points — it "must always play fair"); at
// max_penalty the device is blacklisted.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cadet/config.h"
#include "util/rng.h"
#include "util/time.h"

namespace cadet {

/// Points applied for each possible number of sanity checks passed (0..6).
struct PenaltyScheme {
  std::string name;
  std::array<double, 7> points;

  static PenaltyScheme base();    // Table I "CADET Base"
  static PenaltyScheme loose();   // Table I "Loose"
  static PenaltyScheme strict();  // Table I "Strict"
};

/// Shape of the drop-probability curve between drop_thresh and max_penalty.
enum class DropCurve {
  kLinear,   // Eq. 2: (p - thresh) / (max - thresh)
  kSigmoid,  // §IV-A alternative that avoids a hard 100 % rate
};

struct PenaltyConfig {
  PenaltyScheme scheme = PenaltyScheme::base();
  double drop_thresh = kDropThresh;
  double max_penalty = kMaxPenalty;
  DropCurve curve = DropCurve::kLinear;
};

class ClientEconomics {
 public:
  using ClientId = std::uint32_t;
  /// Dense slot index. A distinct type, so slot- and id-keyed accessors
  /// cannot be confused: score(Slot{i}) vs score(client_id).
  enum class Slot : std::uint32_t {};

  /// `decay` in (0, 1]; `slots` pre-sizes the table (ScaleWorld).
  explicit ClientEconomics(PenaltyConfig penalty = {},
                           double decay = kUsageDecay, std::size_t slots = 0);

  // ------------------------------------------------------------- slots
  std::size_t size() const noexcept { return raw_.size(); }
  /// The slot of `id`, appended on first sight.
  Slot slot(ClientId id);
  std::optional<Slot> find(ClientId id) const;

  // ------------------------------------------------------ usage (Eq. 1)
  /// Advance one step with no usage attributed.
  void tick() noexcept;
  /// Advance one step, then add `usage` to the slot's score.
  void record(Slot s, double usage);
  /// Join the heavy-line cohort with the current score (0 for a new slot).
  void track(Slot s) { cohort_[index(s)] = true; }
  double score(Slot s) const noexcept { return raw_[index(s)] / scale_; }
  std::uint64_t steps() const noexcept { return steps_; }
  std::size_t cohort_size() const noexcept;

  // -------------------------------------------------------- heavy line
  struct HeavyLine {
    double median = 0.0;
    /// median + k * 1.4826 * MAD (stddev when MAD is 0).
    double threshold = 0.0;
  };
  /// The line over the cohort's current scores (0s for an empty cohort).
  HeavyLine heavy_line() const;
  /// Heavy iff score > threshold AND score > kUsageHeavyMedianRatio *
  /// median: the MAD test catches outliers, the median-ratio floor stops
  /// compressed-cohort false positives (an honest burst that is 3
  /// MAD-sigmas out but barely above typical usage). Computes a line.
  bool is_heavy(Slot s) const;

  /// Cache the current line (returned in score units); over() judges
  /// against it until the next refresh. Until the first refresh nobody is
  /// over. Ticks leave a cached line exact: it decays with the scores.
  HeavyLine refresh_line();
  bool over(Slot s) const noexcept { return raw_[index(s)] > cut_; }

  // ------------------------------------------------ two-stage policing
  struct Verdict {
    bool over = false;  ///< over the heavy line: reserve-blocked, a strike
    bool deny = false;  ///< stage 2: refused outright, usage not recorded
    int strikes = 0;    ///< consecutive over-line requests so far
  };
  /// One request asking for `usage`, arriving at `now`. Every call is an
  /// arrival. A denied request dies at the gate: no record, no tick (a
  /// flood of scored packets would otherwise compress the honest cohort).
  /// `refresh` recomputes the line around the record (EdgeNode);
  /// otherwise the cached one judges (ScaleWorld's periodic scan).
  Verdict request(Slot s, double usage, util::SimTime now, bool refresh,
                  bool denial_enabled);
  int strikes(Slot s) const noexcept { return strikes_[index(s)]; }

  // ------------------------------------------- penalties (Eq. 2, Table I)
  const PenaltyConfig& penalty_config() const noexcept { return config_; }
  /// Probability that a packet from a device at score `penalty` is ignored.
  double drop_percent(double penalty) const noexcept;
  /// Decide whether to ignore an upload *before* inspecting it (Fig. 2
  /// upstream step 2). Draws from `rng` only inside the drop band.
  bool should_drop(Slot s, util::Xoshiro256& rng) const;
  /// Apply the scheme for an upload that passed `checks_passed` of the 6
  /// sanity checks. Scores floor at zero.
  void record_result(Slot s, int checks_passed);
  double penalty(Slot s) const noexcept { return penalty_[index(s)]; }
  bool is_delinquent(Slot s) const noexcept {
    return penalty(s) >= config_.drop_thresh;
  }
  bool is_blacklisted(Slot s) const noexcept {
    return penalty(s) >= config_.max_penalty;
  }

  // ---------------------------- id-keyed reads (unknown id = fresh client)
  double score(ClientId id) const {
    const std::optional<Slot> s = find(id);
    return s ? score(*s) : 0.0;
  }
  bool is_heavy(ClientId id) const {
    const std::optional<Slot> s = find(id);
    return s && is_heavy(*s);
  }
  double penalty(ClientId id) const {
    const std::optional<Slot> s = find(id);
    return s ? penalty(*s) : 0.0;
  }
  bool is_delinquent(ClientId id) const {
    const std::optional<Slot> s = find(id);
    return s && is_delinquent(*s);
  }
  bool is_blacklisted(ClientId id) const {
    const std::optional<Slot> s = find(id);
    return s && is_blacklisted(*s);
  }

  /// Heap bytes held by the per-slot arrays (the id index excluded).
  std::size_t memory_bytes() const noexcept;

 private:
  /// Raw values are renormalised when the scale passes this (~1e150): far
  /// from overflow for any score, yet only every ~8.5k steps at decay 0.96.
  static constexpr double kRenormAt = 0x1p500;

  static std::size_t index(Slot s) noexcept {
    return static_cast<std::size_t>(s);
  }
  /// The line over the raw values (scale_ units).
  HeavyLine raw_line() const;
  /// The heavy cut of a raw line: max(threshold, ratio * median).
  static double cut_of(const HeavyLine& line) noexcept;
  void renormalise() noexcept;
  /// Leaky-bucket arrival; true when the client reads fast.
  bool arrive(std::size_t i, util::SimTime now) noexcept;

  PenaltyConfig config_;
  double inv_decay_ = 1.0 / kUsageDecay;
  double scale_ = 1.0;  ///< decay^-t since the last renormalisation
  double cut_ = std::numeric_limits<double>::infinity();  ///< cached, raw
  std::uint64_t steps_ = 0;

  // Per-slot state.
  std::vector<double> raw_;               // usage score * scale_
  std::vector<double> penalty_;           // Table I score, >= 0
  std::vector<util::SimTime> drain_at_;   // when the arrival bucket empties
  std::vector<std::uint8_t> strikes_;     // consecutive over-line requests
  std::vector<bool> cohort_;              // has recorded usage

  // Id -> slot for the full engines (lookups only; never iterated).
  std::unordered_map<ClientId, Slot> slots_;
};

}  // namespace cadet
