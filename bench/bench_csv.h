// Tiny CSV emitter for the figure benches: pass `--csv <dir>` to any
// figure bench and it writes the plotted series alongside the printed
// table, so the paper's figures can be regenerated with any plotting tool.
//
// The writer itself lives in obs/csv.h; this header only keeps the
// bench-facing names and the --csv flag helper.
#pragma once

#include <optional>
#include <string>

#include "obs/csv.h"

namespace cadet::benchcsv {

/// Returns the directory passed via --csv, if any.
inline std::optional<std::string> csv_dir(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--csv") return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

using CsvFile = obs::CsvFile;

}  // namespace cadet::benchcsv
