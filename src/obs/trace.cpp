#include "obs/trace.h"

#include <cctype>
#include <cinttypes>
#include <cstddef>
#include <cstdlib>
#include <cstring>

namespace cadet::obs {

namespace {

void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    switch (*s) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += *s;
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[64];
  // %.17g keeps doubles round-trippable; integers print without a point.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

}  // namespace

std::string to_json(const TraceEvent& event) {
  std::string out;
  out.reserve(96);
  char ts[48];
  std::snprintf(ts, sizeof(ts), "%.9f", util::to_seconds(event.ts));
  out += "{\"ts\":";
  out += ts;
  out += ",\"ev\":\"";
  append_escaped(out, event.name);
  out += "\",\"tier\":\"";
  append_escaped(out, event.tier);
  out += "\",\"node\":";
  char node[24];
  std::snprintf(node, sizeof(node), "%" PRIu64, event.node);
  out += node;
  if (event.trace != 0) {
    char ids[96];
    std::snprintf(ids, sizeof(ids), ",\"trace\":%" PRIu64 ",\"span\":%" PRIu64,
                  event.trace, event.span);
    out += ids;
    if (event.parent != 0) {
      std::snprintf(ids, sizeof(ids), ",\"parent\":%" PRIu64, event.parent);
      out += ids;
    }
  }
  if (event.phase != 0) {
    out += ",\"ph\":\"";
    out += event.phase;
    out += '"';
  }
  for (std::uint8_t i = 0; i < event.num_attrs; ++i) {
    out += ",\"";
    append_escaped(out, event.attrs[i].key);
    out += "\":";
    append_number(out, event.attrs[i].value);
  }
  out += '}';
  return out;
}

// ------------------------------------------------------------------ sinks

FileSink::FileSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    std::fprintf(stderr, "warning: cannot open trace file %s\n",
                 path.c_str());
  }
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileSink::write(const TraceEvent& event) {
  if (file_ == nullptr) return;
  const std::string line = to_json(event);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

// ----------------------------------------------------------------- Tracer

void Tracer::set_sink(TraceSink* sink) {
  util::MutexLock lock(mu_);
  sink_ = sink;
}

void Tracer::record(const TraceEvent& event) noexcept {
  if (!enabled()) return;
  util::MutexLock lock(mu_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
  }
  // Under the lock: the sink sees events in the ring's order, and a sink
  // need not be thread-safe.
  if (sink_ != nullptr) sink_->write(event);
}

std::vector<TraceEvent> Tracer::recent() const {
  util::MutexLock lock(mu_);
  const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(next_);
  std::vector<TraceEvent> out(oldest, ring_.end());
  out.insert(out.end(), ring_.begin(), oldest);
  return out;
}

std::string Tracer::recent_jsonl() const {
  std::string out;
  for (const TraceEvent& event : recent()) {
    out += to_json(event);
    out += '\n';
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  util::MutexLock lock(mu_);
  return recorded_;
}

void Tracer::clear() {
  util::MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // never destroyed
  return *instance;
}

// ----------------------------------------------------------- trace reading

namespace {

void skip_spaces(std::string_view s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

bool parse_string(std::string_view s, std::size_t& i, std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out.clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out += '\n'; break;
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        default: out += s[i];
      }
    } else {
      out += s[i];
    }
    ++i;
  }
  if (i >= s.size()) return false;
  ++i;  // closing quote
  return true;
}

/// Parses a JSON number. `out` gets the double value; `out_u64` gets the
/// EXACT integer when the token is a plain unsigned decimal — 64-bit
/// trace/span ids (the scale path packs tag bits into the top bits) do not
/// survive a double round trip, so id fields must read from `out_u64`.
bool parse_number(std::string_view s, std::size_t& i, double& out,
                  std::uint64_t& out_u64) {
  char* end = nullptr;
  // strtod needs a NUL-terminated buffer; numbers are short.
  char buf[64];
  std::size_t n = 0;
  bool integral = true;
  while (i + n < s.size() && n + 1 < sizeof(buf) &&
         (std::isdigit(static_cast<unsigned char>(s[i + n])) ||
          s[i + n] == '-' || s[i + n] == '+' || s[i + n] == '.' ||
          s[i + n] == 'e' || s[i + n] == 'E')) {
    if (!std::isdigit(static_cast<unsigned char>(s[i + n]))) {
      integral = false;
    }
    buf[n] = s[i + n];
    ++n;
  }
  if (n == 0) return false;
  buf[n] = '\0';
  out = std::strtod(buf, &end);
  if (end == buf) return false;
  out_u64 = integral ? std::strtoull(buf, nullptr, 10)
                     : static_cast<std::uint64_t>(out);
  i += static_cast<std::size_t>(end - buf);
  return true;
}

}  // namespace

std::optional<ParsedEvent> parse_json_line(std::string_view line) {
  std::size_t i = 0;
  skip_spaces(line, i);
  if (i >= line.size() || line[i] != '{') return std::nullopt;
  ++i;

  ParsedEvent event;
  bool saw_ts = false;
  bool saw_name = false;
  bool first = true;
  while (true) {
    skip_spaces(line, i);
    if (i < line.size() && line[i] == '}') {
      ++i;
      break;
    }
    if (!first) {
      if (i >= line.size() || line[i] != ',') return std::nullopt;
      ++i;
      skip_spaces(line, i);
    }
    first = false;

    std::string key;
    if (!parse_string(line, i, key)) return std::nullopt;
    skip_spaces(line, i);
    if (i >= line.size() || line[i] != ':') return std::nullopt;
    ++i;
    skip_spaces(line, i);

    if (i < line.size() && line[i] == '"') {
      std::string value;
      if (!parse_string(line, i, value)) return std::nullopt;
      if (key == "ev") {
        event.name = std::move(value);
        saw_name = true;
      } else if (key == "tier") {
        event.tier = std::move(value);
      } else if (key == "ph") {
        event.phase = value.empty() ? 0 : value[0];
      }
      // Unknown string keys are tolerated (schema may grow).
    } else {
      double value = 0.0;
      std::uint64_t exact = 0;
      if (!parse_number(line, i, value, exact)) return std::nullopt;
      if (key == "ts") {
        event.ts_s = value;
        saw_ts = true;
      } else if (key == "node") {
        event.node = exact;
      } else if (key == "trace") {
        event.trace = exact;
      } else if (key == "span") {
        event.span = exact;
      } else if (key == "parent") {
        event.parent = exact;
      } else {
        event.attrs.emplace_back(std::move(key), value);
      }
    }
  }
  skip_spaces(line, i);
  if (i != line.size()) return std::nullopt;
  if (!saw_ts || !saw_name) return std::nullopt;
  return event;
}

}  // namespace cadet::obs
