#include "cadet/economics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cadet {

namespace {

/// Consistency factor making MAD estimate sigma for normal data.
constexpr double kMadToSigma = 1.4826;

/// Arrival bucket: drains one arrival per kDrainNs (the rate floor) and
/// reads fast once it holds kUsageHeavyDenyWindow - 1 arrivals. Storing the
/// instant it would run empty keeps the whole bucket in one word.
constexpr util::SimTime kDrainNs =
    util::from_seconds(1.0 / kUsageHeavyDenyMinRateHz);
constexpr util::SimTime kFastNs =
    static_cast<util::SimTime>(kUsageHeavyDenyWindow - 1) * kDrainNs;

/// Median of a scratch vector (reorders it; one nth_element pass, plus a
/// max over the lower half for an even count).
double median_of(std::vector<double>& values) {
  const std::size_t n = values.size();
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (n % 2 == 1) return *mid;
  return 0.5 * (*std::max_element(values.begin(), mid) + *mid);
}

}  // namespace

PenaltyScheme PenaltyScheme::base() {
  return {"CADET Base", {+5, +4, +3, +2, +1, 0, -1}};
}

PenaltyScheme PenaltyScheme::loose() {
  return {"Loose", {+4, +3, +2, +1, 0, -1, -2}};
}

PenaltyScheme PenaltyScheme::strict() {
  return {"Strict", {+10, +6, +3, +1, 0, -1, -1}};
}

ClientEconomics::ClientEconomics(PenaltyConfig penalty, double decay,
                                 std::size_t slots)
    : config_(std::move(penalty)),
      inv_decay_(1.0 / decay),
      raw_(slots, 0.0),
      penalty_(slots, 0.0),
      drain_at_(slots, 0),
      strikes_(slots, 0),
      cohort_(slots, false) {
  if (config_.max_penalty <= config_.drop_thresh) {
    throw std::invalid_argument("ClientEconomics: max_penalty <= drop_thresh");
  }
  if (!(decay > 0.0 && decay <= 1.0)) {
    throw std::invalid_argument("ClientEconomics: decay outside (0, 1]");
  }
}

ClientEconomics::Slot ClientEconomics::slot(ClientId id) {
  const auto [it, added] =
      slots_.try_emplace(id, static_cast<Slot>(raw_.size()));
  if (added) {
    raw_.push_back(0.0);
    penalty_.push_back(0.0);
    drain_at_.push_back(0);
    strikes_.push_back(0);
    cohort_.push_back(false);
  }
  return it->second;
}

std::optional<ClientEconomics::Slot> ClientEconomics::find(
    ClientId id) const {
  const auto it = slots_.find(id);
  if (it == slots_.end()) return std::nullopt;
  return it->second;
}

// ------------------------------------------------------------------ usage

void ClientEconomics::tick() noexcept {
  ++steps_;
  scale_ *= inv_decay_;
  if (scale_ > kRenormAt) renormalise();
}

void ClientEconomics::renormalise() noexcept {
  for (double& value : raw_) value /= scale_;
  cut_ /= scale_;
  scale_ = 1.0;
}

void ClientEconomics::record(Slot s, double usage) {
  tick();
  raw_[index(s)] += usage * scale_;
  cohort_[index(s)] = true;
}

std::size_t ClientEconomics::cohort_size() const noexcept {
  return static_cast<std::size_t>(
      std::count(cohort_.begin(), cohort_.end(), true));
}

// ------------------------------------------------------------- heavy line

ClientEconomics::HeavyLine ClientEconomics::raw_line() const {
  HeavyLine line;
  std::vector<double> values;
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    if (cohort_[i]) values.push_back(raw_[i]);
  }
  if (values.empty()) return line;
  line.median = median_of(values);
  for (double& value : values) value = std::fabs(value - line.median);
  double spread = kMadToSigma * median_of(values);
  if (spread == 0.0) {
    // Degenerate MAD (majority of scores identical, e.g. an idle network):
    // fall back to the classical standard deviation so a single spike is
    // still judged against *some* spread rather than a zero threshold.
    // Deviations are squared in score units: raw squares could overflow.
    const double n = static_cast<double>(values.size());
    double mean = 0.0;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      if (cohort_[i]) mean += raw_[i];
    }
    mean /= n;
    double m2 = 0.0;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      if (!cohort_[i]) continue;
      const double d = (raw_[i] - mean) / scale_;
      m2 += d * d;
    }
    spread = std::sqrt(m2 / n) * scale_;
  }
  line.threshold = line.median + kUsageSigmaThreshold * spread;
  return line;
}

double ClientEconomics::cut_of(const HeavyLine& line) noexcept {
  // Relative floor: the MAD threshold is a spread test, and a cohort whose
  // scores have been compressed by attacker-driven decay can put honest
  // burst noise 3 MAD-sigmas out while it is still only ~2x the typical
  // user. Require the score to also be a hard multiple of the median so
  // "heavy" means "several times normal usage", not "least typical".
  // Median 0 (idle network) keeps the stddev-fallback spike behaviour.
  return std::max(line.threshold, kUsageHeavyMedianRatio * line.median);
}

ClientEconomics::HeavyLine ClientEconomics::heavy_line() const {
  const HeavyLine raw = raw_line();
  return {raw.median / scale_, raw.threshold / scale_};
}

bool ClientEconomics::is_heavy(Slot s) const {
  return raw_[index(s)] > cut_of(raw_line());
}

ClientEconomics::HeavyLine ClientEconomics::refresh_line() {
  const HeavyLine raw = raw_line();
  cut_ = cut_of(raw);
  return {raw.median / scale_, raw.threshold / scale_};
}

// --------------------------------------------------------------- policing

bool ClientEconomics::arrive(std::size_t i, util::SimTime now) noexcept {
  drain_at_[i] = std::max(drain_at_[i], now) + kDrainNs;
  return drain_at_[i] - now >= kFastNs;
}

ClientEconomics::Verdict ClientEconomics::request(Slot s, double usage,
                                                  util::SimTime now,
                                                  bool refresh,
                                                  bool denial_enabled) {
  const std::size_t i = index(s);
  const bool fast = arrive(i, now);
  Verdict verdict;
  verdict.strikes = strikes_[i];
  // Already at the strike limit at flooding rate and still over the line:
  // denied before the record, so the flood freezes its own score instead
  // of driving the cohort's decay.
  if (denial_enabled && fast && verdict.strikes >= kUsageHeavyStrikeLimit) {
    if (refresh) refresh_line();
    if (over(s)) {
      verdict.over = verdict.deny = true;
      return verdict;
    }
  }
  record(s, usage);
  if (refresh) refresh_line();
  verdict.over = over(s);
  strikes_[i] = verdict.over
                    ? static_cast<std::uint8_t>(std::min(strikes_[i] + 1, 255))
                    : std::uint8_t{0};
  verdict.strikes = strikes_[i];
  verdict.deny = denial_enabled && verdict.over &&
                 verdict.strikes >= kUsageHeavyStrikeLimit && fast;
  return verdict;
}

// -------------------------------------------------------------- penalties

double ClientEconomics::drop_percent(double penalty) const noexcept {
  if (penalty < config_.drop_thresh) return 0.0;
  switch (config_.curve) {
    case DropCurve::kLinear: {
      const double p = (penalty - config_.drop_thresh) /
                       (config_.max_penalty - config_.drop_thresh);
      return std::clamp(p, 0.0, 1.0);
    }
    case DropCurve::kSigmoid: {
      // Centered halfway between thresh and max; ~0.995 cap at max keeps a
      // sliver of acceptance so a reformed device can eventually recover.
      const double mid =
          (config_.drop_thresh + config_.max_penalty) / 2.0;
      const double scale =
          (config_.max_penalty - config_.drop_thresh) / 10.0;
      return 1.0 / (1.0 + std::exp(-(penalty - mid) / scale));
    }
  }
  return 0.0;
}

bool ClientEconomics::should_drop(Slot s, util::Xoshiro256& rng) const {
  if (is_blacklisted(s) && config_.curve == DropCurve::kLinear) {
    return true;  // blacklisted: always ignore
  }
  const double p = drop_percent(penalty(s));
  return p > 0.0 && rng.bernoulli(p);
}

void ClientEconomics::record_result(Slot s, int checks_passed) {
  if (checks_passed < 0 ||
      checks_passed >= static_cast<int>(config_.scheme.points.size())) {
    throw std::out_of_range("ClientEconomics: checks_passed out of range");
  }
  double& score = penalty_[index(s)];
  score = std::max(0.0, score + config_.scheme.points[checks_passed]);
}

std::size_t ClientEconomics::memory_bytes() const noexcept {
  return raw_.capacity() * sizeof(double) +
         penalty_.capacity() * sizeof(double) +
         drain_at_.capacity() * sizeof(util::SimTime) +
         strikes_.capacity() * sizeof(std::uint8_t) + cohort_.capacity() / 8;
}

}  // namespace cadet
