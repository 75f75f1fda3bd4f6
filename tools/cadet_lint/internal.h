// Shared internals between the cadet-lint engine (lint.cpp), the per-file
// rule implementations (rules.cpp), and the include-graph pass (graph.cpp).
// Not installed; include via "cadet_lint/...".
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cadet_lint/lint.h"

namespace cadet::lint {

/// One #include directive, with its 1-based line for exact reporting.
struct Include {
  std::string target;     // e.g. "vector", "util/bytes.h"
  std::size_t line = 0;
};

/// A preprocessed source file: raw lines for suppression markers, scrubbed
/// lines for token scans, the include directives, and the member analysis
/// the determinism pass builds on.
struct SourceFile {
  std::string path;                   // repo-relative, '/'-separated
  bool is_header = false;             // .h / .hpp
  bool graph_only = false;            // tests/: include-graph pass only
  std::vector<std::string> raw;       // verbatim lines
  std::vector<std::string> code;      // comments/strings blanked
  std::vector<Include> includes;

  /// Identifiers declared in this file as std::unordered_* containers
  /// (members and locals alike).
  std::vector<std::string> unordered_members;
  /// Unordered identifiers imported from directly-included tree files —
  /// how usage.cpp learns about the members its header declares. Filled by
  /// make_tree(), empty for single-file lint_content.
  std::vector<std::string> imported_unordered;
};

SourceFile make_source(std::string_view path, std::string_view content);

/// The resolved multi-file view: per-file include edges into `files`, used
/// by the include-graph pass and the cross-file member import.
struct Tree {
  struct Edge {
    std::size_t target;    // index into files
    std::size_t line;      // 1-based line of the #include
  };
  std::vector<SourceFile> files;
  std::vector<std::vector<Edge>> edges;  // parallel to files
};

/// Resolve include edges and propagate header-declared unordered members
/// into their direct includers.
Tree make_tree(std::vector<SourceFile> files);

/// Layering: module slug of a repo-relative path ("src/cadet/economics.h" ->
/// "cadet", "tools/cadet_lint/lint.cpp" -> "tools"). Empty if the path is
/// outside the known tree shape.
std::string_view module_of(std::string_view path);

/// Rank in the layering DAG (0 = util at the bottom). kTopRank modules
/// (tools/tests/bench/examples) form one unordered cap tier. Returns -1
/// for unknown modules, which the layering pass treats as exempt.
int module_rank(std::string_view module);
inline constexpr int kTopRank = 6;

/// The include-graph pass: include cycles + layering violations.
void check_include_graph(const Tree& tree, std::vector<Finding>& out);

/// Graph exports (see lint.h export_graph).
std::string graph_to_json(const Tree& tree);
std::string graph_to_dot(const Tree& tree);

/// Find identifier `token` in `line` starting at/after `from`, honouring
/// identifier boundaries on both sides. Returns npos if absent.
std::size_t find_token(std::string_view line, std::string_view token,
                       std::size_t from = 0);

/// True if `line` contains `token` as a whole identifier; when
/// `call_only`, the next non-space character must be '('.
bool has_token(std::string_view line, std::string_view token,
               bool call_only);

/// Split the argument list of the call whose '(' is at `open` into
/// top-level (depth-0) comma-separated pieces. Unbalanced input yields
/// whatever was parsed before the line ended.
std::vector<std::string> call_args(std::string_view line, std::size_t open);

/// Rule implementations append findings for one file. `line` numbers in
/// findings are 1-based.
using RuleFn = void (*)(const SourceFile& file, std::vector<Finding>& out);

struct Rule {
  std::string_view id;
  std::string_view summary;
  RuleFn fn;
};

/// The per-file rule table, in evaluation order (defined in rules.cpp).
/// The tree-level rules (include-cycle, layering) live in graph.cpp and
/// appear in rule_catalog() but not here.
const std::vector<Rule>& rules();

}  // namespace cadet::lint
