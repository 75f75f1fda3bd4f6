// Registry exporter: Prometheus text exposition, and its parser.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace cadet::obs {

/// Prometheus text exposition format (counters get a _total suffix,
/// histograms expand to _bucket/_sum/_count series). Label values are
/// escaped per the exposition spec (backslash, double-quote, newline).
std::string to_prometheus(const Registry& registry);

/// One sample line parsed back from the text exposition: the series name
/// as exposed (including _total/_bucket/_sum/_count suffixes), the
/// unescaped label set, and the value.
struct PromSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

/// Result of parsing a text exposition. `types` holds (family, type) pairs
/// from "# TYPE" comments in exposition order; malformed lines land in
/// `errors` instead of being silently dropped.
struct PromParse {
  std::vector<PromSample> samples;
  std::vector<std::pair<std::string, std::string>> types;
  std::vector<std::string> errors;
};

/// Parse Prometheus text exposition (the inverse of to_prometheus, used by
/// the exporter round-trip tests and tools/cadet_report).
PromParse parse_prometheus(std::string_view text);

/// Write `text` to `path` (helper for --metrics-out). Returns false and
/// warns on failure.
bool write_file(const std::string& path, const std::string& text);

}  // namespace cadet::obs
