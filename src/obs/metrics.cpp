#include "obs/metrics.h"

#include <algorithm>

#include "obs/hdr.h"

namespace cadet::obs {

// ----------------------------------------------------------------- Registry

Registry::Slot::Slot() = default;
Registry::Slot::~Slot() = default;
Registry::~Registry() = default;

Registry::Slot& Registry::find_or_create(const std::string& name,
                                         const Labels& labels, Kind kind,
                                         const HdrConfig* hdr_config) {
  util::MutexLock lock(mu_);
  const auto key = std::make_pair(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) return *it->second;
  Slot& slot = slots_.emplace_back();
  slot.name = name;
  slot.labels = labels;
  slot.kind = kind;
  if (kind == Kind::kHdr) {
    slot.hdr = std::make_unique<HdrHistogram>(hdr_config ? *hdr_config
                                                         : HdrConfig{});
  }
  index_[key] = &slot;
  return slot;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  return find_or_create(name, labels, Kind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  return find_or_create(name, labels, Kind::kGauge).gauge;
}

HdrHistogram& Registry::hdr(const std::string& name, const Labels& labels) {
  return *find_or_create(name, labels, Kind::kHdr).hdr;
}

HdrHistogram& Registry::hdr(const std::string& name, const Labels& labels,
                            const HdrConfig& config) {
  return *find_or_create(name, labels, Kind::kHdr, &config).hdr;
}

std::vector<Registry::Entry> Registry::entries() const {
  util::MutexLock lock(mu_);
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    Entry e;
    e.name = slot.name;
    e.labels = slot.labels;
    e.kind = slot.kind;
    switch (slot.kind) {
      case Kind::kCounter: e.counter = &slot.counter; break;
      case Kind::kGauge: e.gauge = &slot.gauge; break;
      case Kind::kHdr: e.hdr = slot.hdr.get(); break;
    }
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

std::size_t Registry::size() const {
  util::MutexLock lock(mu_);
  return slots_.size();
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

Labels tier_labels(const char* tier, std::uint64_t node) {
  return Labels{{"node", std::to_string(node)}, {"tier", tier}};
}

}  // namespace cadet::obs
