#include "span_log.h"

#include <chrono>
#include <cstdio>

namespace cadet::e2e {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint16_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t SpanLog::open(std::uint16_t name, std::int64_t start_ns) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = current_;
  span.name = name;
  span.start_ns = start_ns;
  spans_.push_back(span);
  current_ = span.id;
  return span.id;
}

void SpanLog::close(std::uint32_t id, std::int64_t end_ns) {
  Span& span = spans_[id - 1];
  span.end_ns = end_ns;
  current_ = span.parent;
}

void SpanLog::close_as(std::uint32_t id, std::int64_t end_ns,
                       std::uint16_t coalesce) {
  Span& span = spans_[id - 1];
  span.name = coalesce;
  close(id, end_ns);
  const bool childless = spans_.back().id == id;
  if (!childless || spans_.size() < 2) return;
  Span& prev = spans_[spans_.size() - 2];
  if (prev.name == coalesce && prev.parent == span.parent && !prev.async) {
    prev.end_ns = end_ns;
    spans_.pop_back();
  }
}

void SpanLog::leaf(std::uint16_t name, std::int64_t start_ns,
                   std::int64_t end_ns) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = current_;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void SpanLog::async(std::uint16_t name, std::uint64_t key,
                    std::int64_t start_ns, std::int64_t end_ns) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.name = name;
  span.async = true;
  span.key = key;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void SpanLog::clear() {
  spans_.clear();
  current_ = 0;
}

void SpanLog::accumulate(LayerTable& layers, FoldedTable& folded) const {
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0 && !span.async) {
      child_ns[span.parent] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  // Parents precede their children in the log, so one forward pass builds
  // every stack path.
  std::vector<std::string> path(spans_.size() + 1);
  for (const Span& span : spans_) {
    const double total = static_cast<double>(span.end_ns - span.start_ns);
    LayerTime& layer = layers[names_[span.name]];
    ++layer.calls;
    layer.total_ns += total;
    if (total > layer.max_ns) layer.max_ns = total;
    if (span.async) continue;
    const double self = total - child_ns[span.id];
    layer.self_ns += self;
    path[span.id] = span.parent == 0
                        ? names_[span.name]
                        : path[span.parent] + ";" + names_[span.name];
    folded[path[span.id]] += self;
  }
}

bool SpanLog::write_jsonl(const std::string& path,
                          std::int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld",
                 span.id, span.parent, names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns - origin_ns),
                 static_cast<long long>(span.end_ns - origin_ns));
    if (span.async) {
      std::fprintf(f, ",\"seq\":%llu",
                   static_cast<unsigned long long>(span.key));
    }
    std::fputs("}\n", f);
  }
  return std::fclose(f) == 0;
}

bool write_folded(const std::string& path, const FoldedTable& folded) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [stack, ns] : folded) {
    if (ns >= 0.5) {
      std::fprintf(f, "%s %.0f\n", stack.c_str(), ns);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace cadet::e2e
