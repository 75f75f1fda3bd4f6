#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "obs/hdr.h"

namespace cadet::obs {

namespace {

// Label-value escaping per the exposition spec: backslash, double-quote,
// and newline must be escaped inside the quoted value.
void append_escaped_label(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}

std::string label_block(const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    append_escaped_label(out, value);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    append_escaped_label(out, extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

const char* kind_name(Registry::Kind kind) {
  switch (kind) {
    case Registry::Kind::kCounter: return "counter";
    case Registry::Kind::kGauge: return "gauge";
    case Registry::Kind::kHdr: return "histogram";
  }
  return "?";
}

}  // namespace

std::string to_prometheus(const Registry& registry) {
  std::string out;
  std::string last_name;
  for (const auto& entry : registry.entries()) {
    if (entry.name != last_name) {
      out += "# TYPE " + entry.name + ' ' + kind_name(entry.kind) + '\n';
      last_name = entry.name;
    }
    switch (entry.kind) {
      case Registry::Kind::kCounter:
        out += entry.name + "_total" + label_block(entry.labels) + ' ' +
               std::to_string(entry.counter->value()) + '\n';
        break;
      case Registry::Kind::kGauge:
        out += entry.name + label_block(entry.labels) + ' ' +
               std::to_string(entry.gauge->value()) + '\n';
        break;
      case Registry::Kind::kHdr: {
        // Only populated cells become buckets: an HDR histogram has ~1k
        // cells and a typical run touches a few dozen, so the exposition
        // stays compact while keeping full cell precision (le is the
        // cell's exclusive upper edge in seconds).
        const HdrSnapshot snap = entry.hdr->snapshot();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < snap.counts.size(); ++i) {
          if (snap.counts[i] == 0) continue;
          cumulative += snap.counts[i];
          out += entry.name + "_bucket" +
                 label_block(
                     entry.labels, "le",
                     format_double(static_cast<double>(
                                       snap.layout.value_hi(i)) *
                                   1e-9)) +
                 ' ' + std::to_string(cumulative) + '\n';
        }
        out += entry.name + "_bucket" +
               label_block(entry.labels, "le", "+Inf") + ' ' +
               std::to_string(snap.count) + '\n';
        out += entry.name + "_sum" + label_block(entry.labels) + ' ' +
               format_double(snap.sum_s) + '\n';
        out += entry.name + "_count" + label_block(entry.labels) + ' ' +
               std::to_string(snap.count) + '\n';
        break;
      }
    }
  }
  return out;
}

PromParse parse_prometheus(std::string_view text) {
  PromParse result;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // Only "# TYPE <family> <type>" comments carry structure.
      constexpr std::string_view kType = "# TYPE ";
      if (line.substr(0, kType.size()) == kType) {
        const std::string_view rest = line.substr(kType.size());
        const std::size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          result.errors.emplace_back(line);
        } else {
          result.types.emplace_back(std::string(rest.substr(0, space)),
                                    std::string(rest.substr(space + 1)));
        }
      }
      continue;
    }

    PromSample sample;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0 || i == line.size()) {
      result.errors.emplace_back(line);
      continue;
    }
    sample.name = std::string(line.substr(0, i));

    bool bad = false;
    if (line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          bad = true;
          break;
        }
        std::string key(line.substr(i, eq - i));
        std::string value;
        std::size_t j = eq + 2;  // past the opening quote
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            const char esc = line[j + 1];
            value += esc == 'n' ? '\n' : esc;
            j += 2;
          } else {
            value += line[j++];
          }
        }
        if (j >= line.size()) {  // unterminated value
          bad = true;
          break;
        }
        sample.labels.emplace_back(std::move(key), std::move(value));
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (bad || i >= line.size()) {
        result.errors.emplace_back(line);
        continue;
      }
      ++i;  // past '}'
    }

    if (i >= line.size() || line[i] != ' ') {
      result.errors.emplace_back(line);
      continue;
    }
    const std::string value_text(line.substr(i + 1));
    if (value_text == "+Inf") {
      sample.value = std::numeric_limits<double>::infinity();
    } else if (value_text == "-Inf") {
      sample.value = -std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str() || *end != '\0') {
        result.errors.emplace_back(line);
        continue;
      }
    }
    result.samples.push_back(std::move(sample));
  }
  return result;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << text;
  return static_cast<bool>(out);
}

}  // namespace cadet::obs
