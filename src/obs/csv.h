// Single CSV emitter shared by the figure benches' --csv output, replacing
// the per-bench hand-rolled writers. Header-only so the benches can use it
// without linking cadet_obs.
//
// Escaping follows RFC 4180 (what scripts/plot_figures.py's csv.reader
// expects): fields containing a comma, quote, CR, or LF are double-quoted
// with embedded quotes doubled; everything else is written verbatim.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cadet::obs {

/// Quote `field` if (and only if) CSV requires it.
inline std::string csv_escape(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Join cells into one CSV record (no trailing newline).
inline std::string csv_join(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ',';
    out += csv_escape(cells[i]);
  }
  return out;
}

/// Split one CSV record back into cells, undoing csv_escape. Assumes a
/// complete record (no embedded unescaped newlines split across lines).
inline std::vector<std::string> csv_split(std::string_view line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

/// Buffered CSV file, one row per call. Failure to open warns once and
/// turns writes into no-ops, so benches keep printing their tables.
class CsvFile {
 public:
  CsvFile(const std::string& dir, const std::string& name)
      : CsvFile(dir + "/" + name) {}

  explicit CsvFile(const std::string& path) : out_(path) {
    if (!out_) {
      std::fprintf(stderr, "warning: cannot open %s for writing\n",
                   path.c_str());
    }
  }

  void row(const std::vector<std::string>& cells) {
    if (!out_) return;
    out_ << csv_join(cells) << '\n';
  }

  /// printf-style escape hatch for numeric rows; the formatted line is
  /// written verbatim (callers supply the commas, no escaping applied).
  template <typename... Args>
  void rowf(const char* format, Args... args) {
    if (!out_) return;
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer), format, args...);
    out_ << buffer << '\n';
  }

  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ofstream out_;
};

}  // namespace cadet::obs
