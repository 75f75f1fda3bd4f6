// The CADET rule catalog. Every rule is data-first: a token/path table plus
// a small driver, so adding a pattern is a one-line table edit (see
// docs/STATIC_ANALYSIS.md, "Adding a rule").
#include <algorithm>
#include <array>
#include <cctype>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cadet_lint/internal.h"

namespace cadet::lint {

namespace {

bool starts_with(std::string_view path, std::string_view prefix) {
  return path.substr(0, prefix.size()) == prefix;
}

void add(std::vector<Finding>& out, const SourceFile& file, std::size_t line,
         std::string_view rule, std::string message) {
  out.push_back(Finding{file.path, line, std::string(rule),
                        std::move(message)});
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// ---------------------------------------------------------------------------
// forbidden-rng: all protocol/crypto randomness flows through the seeded
// sim RNG (util::Xoshiro256) or the CSPRNG (crypto::Csprng). Ad-hoc PRNGs
// give unseeded, unreproducible, or cryptographically weak bits.
// ---------------------------------------------------------------------------

struct RngToken {
  std::string_view token;
  bool call_only;  // only flag when followed by '('
};

constexpr RngToken kRngTokens[] = {
    {"rand", true},          {"srand", true},
    {"rand_r", true},        {"random", true},
    {"srandom", true},       {"drand48", true},
    {"lrand48", true},       {"mrand48", true},
    {"random_shuffle", true},
    {"mt19937", false},      {"mt19937_64", false},
    {"minstd_rand", false},  {"minstd_rand0", false},
    {"default_random_engine", false},
    {"knuth_b", false},      {"ranlux24", false},
    {"ranlux48", false},     {"ranlux24_base", false},
    {"ranlux48_base", false},
    {"random_device", false},
    {"getrandom", true},     {"getentropy", true},
};

// Modules that own randomness and may name these symbols.
constexpr std::string_view kRngAllowedPrefixes[] = {
    "src/util/rng.",
    "src/crypto/csprng.",
    "src/entropy/sources.",
};

void check_forbidden_rng(const SourceFile& file, std::vector<Finding>& out) {
  for (const auto prefix : kRngAllowedPrefixes) {
    if (starts_with(file.path, prefix)) return;
  }
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    for (const auto& spec : kRngTokens) {
      if (has_token(file.code[i], spec.token, spec.call_only)) {
        add(out, file, i + 1, "forbidden-rng",
            "ad-hoc PRNG '" + std::string(spec.token) +
                "'; route randomness through util::Xoshiro256 (simulation) "
                "or crypto::Csprng (protocol/crypto)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// sim-purity: the deterministic tiers take time as a util::SimTime value.
// A wall-clock read anywhere in them breaks bit-identical replay.
// ---------------------------------------------------------------------------

struct ClockToken {
  std::string_view token;
  bool call_only;
};

constexpr ClockToken kClockTokens[] = {
    {"system_clock", false},  {"steady_clock", false},
    {"high_resolution_clock", false},
    {"gettimeofday", true},   {"clock_gettime", true},
    {"timespec_get", true},   {"localtime", true},
    {"gmtime", true},         {"mktime", true},
    {"strftime", true},       {"time", true},
    {"clock", true},
};

// Deterministic tiers: engines, simulator, entropy pipeline. Wall clocks
// belong only in util/time.h adapters and the UDP runner.
constexpr std::string_view kPureDirs[] = {
    "src/sim/",
    "src/cadet/",
    "src/entropy/",
};

void check_sim_purity(const SourceFile& file, std::vector<Finding>& out) {
  const bool applies =
      std::any_of(std::begin(kPureDirs), std::end(kPureDirs),
                  [&](std::string_view d) { return starts_with(file.path, d); });
  if (!applies) return;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    for (const auto& spec : kClockTokens) {
      if (has_token(file.code[i], spec.token, spec.call_only)) {
        add(out, file, i + 1, "sim-purity",
            "wall-clock call '" + std::string(spec.token) +
                "' in a deterministic tier; thread util::SimTime through "
                "from the simulator or UDP runner instead");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// secret-hygiene: memset on key material is elidable under as-if; memcmp
// on tags leaks match length through timing. util/secure.h has the
// non-negotiable versions.
// ---------------------------------------------------------------------------

constexpr std::string_view kWipeStems[] = {"key",   "secret", "seed",
                                           "token", "nonce",  "priv",
                                           "ikm",   "okm"};
constexpr std::string_view kCompareStems[] = {"tag",    "token", "mac",
                                              "digest", "key",   "secret",
                                              "hmac",   "hash"};

bool names_secret(std::string_view expr,
                  std::span<const std::string_view> stems) {
  const std::string text = lower(expr);
  return std::any_of(stems.begin(), stems.end(), [&](std::string_view stem) {
    return text.find(stem) != std::string::npos;
  });
}

void check_secret_hygiene(const SourceFile& file, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string_view line = file.code[i];
    for (const auto token : {std::string_view("memset"),
                             std::string_view("bzero")}) {
      std::size_t pos = find_token(line, token);
      while (pos != std::string_view::npos) {
        const std::size_t open = line.find('(', pos + token.size());
        if (open != std::string_view::npos) {
          const auto args = call_args(line, open);
          if (!args.empty() && names_secret(args[0], kWipeStems)) {
            add(out, file, i + 1, "secret-hygiene",
                std::string(token) +
                    " on secret-looking buffer may be elided by the "
                    "optimizer; use util::secure_wipe");
          }
        }
        pos = find_token(line, token, pos + 1);
      }
    }
    std::size_t pos = find_token(line, "memcmp");
    while (pos != std::string_view::npos) {
      const std::size_t open = line.find('(', pos + 6);
      if (open != std::string_view::npos) {
        const auto args = call_args(line, open);
        const bool secret =
            std::any_of(args.begin(), args.end(), [](const std::string& a) {
              return names_secret(a, kCompareStems);
            });
        if (secret) {
          add(out, file, i + 1, "secret-hygiene",
              "memcmp on tag/token material leaks match length through "
              "timing; use util::ct_equal");
        }
      }
      pos = find_token(line, "memcmp", pos + 1);
    }
  }
}

// ---------------------------------------------------------------------------
// header-self-containment: every header carries #pragma once and directly
// includes the std headers whose symbols it names, so it compiles from any
// include order.
// ---------------------------------------------------------------------------

struct StdSymbol {
  std::string_view symbol;  // identifier right after "std::"
  // Any one of these includes satisfies the use.
  std::array<std::string_view, 4> headers;
};

constexpr StdSymbol kStdSymbols[] = {
    {"string", {"string"}},
    {"string_view", {"string_view"}},
    {"vector", {"vector"}},
    {"array", {"array"}},
    {"span", {"span"}},
    {"deque", {"deque"}},
    {"optional", {"optional"}},
    {"nullopt", {"optional"}},
    {"function", {"functional"}},
    {"unordered_map", {"unordered_map"}},
    {"unordered_set", {"unordered_set"}},
    {"map", {"map"}},
    {"set", {"set"}},
    {"pair", {"utility"}},
    {"make_pair", {"utility"}},
    {"move", {"utility"}},
    {"forward", {"utility"}},
    {"exchange", {"utility"}},
    {"max_align_t", {"cstddef"}},
    {"nullptr_t", {"cstddef"}},
    {"is_same_v", {"type_traits"}},
    {"enable_if_t", {"type_traits"}},
    {"decay_t", {"type_traits"}},
    {"is_nothrow_move_constructible_v", {"type_traits"}},
    {"is_invocable_r_v", {"type_traits"}},
    {"endian", {"bit"}},
    {"min", {"algorithm"}},
    {"max", {"algorithm"}},
    {"clamp", {"algorithm"}},
    {"sort", {"algorithm"}},
    {"fill", {"algorithm"}},
    {"unique_ptr", {"memory"}},
    {"shared_ptr", {"memory"}},
    {"make_unique", {"memory"}},
    {"make_shared", {"memory"}},
    {"uint8_t", {"cstdint"}},
    {"uint16_t", {"cstdint"}},
    {"uint32_t", {"cstdint"}},
    {"uint64_t", {"cstdint"}},
    {"int8_t", {"cstdint"}},
    {"int16_t", {"cstdint"}},
    {"int32_t", {"cstdint"}},
    {"int64_t", {"cstdint"}},
    {"size_t", {"cstddef", "cstring", "cstdio", "cstdlib"}},
    {"ptrdiff_t", {"cstddef"}},
    {"memcpy", {"cstring"}},
    {"memset", {"cstring"}},
    {"memcmp", {"cstring"}},
    {"strlen", {"cstring"}},
    {"snprintf", {"cstdio"}},
    {"printf", {"cstdio"}},
    {"fprintf", {"cstdio"}},
    {"FILE", {"cstdio"}},
    {"chrono", {"chrono"}},
    {"atomic", {"atomic"}},
    {"mutex", {"mutex"}},
    {"lock_guard", {"mutex"}},
    {"thread", {"thread"}},
    {"ostream", {"iosfwd", "ostream", "iostream", "sstream"}},
    {"istream", {"iosfwd", "istream", "iostream", "sstream"}},
    {"ofstream", {"fstream"}},
    {"ifstream", {"fstream"}},
    {"ostringstream", {"sstream"}},
    {"istringstream", {"sstream"}},
    {"runtime_error", {"stdexcept"}},
    {"invalid_argument", {"stdexcept"}},
    {"logic_error", {"stdexcept"}},
    {"out_of_range", {"stdexcept"}},
    {"initializer_list", {"initializer_list"}},
    {"numeric_limits", {"limits"}},
    {"strtod", {"cstdlib"}},
    {"strtoull", {"cstdlib"}},
    {"strtoul", {"cstdlib"}},
    {"isinf", {"cmath"}},
    {"isnan", {"cmath"}},
    {"to_string", {"string"}},
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void check_header_self_containment(const SourceFile& file,
                                   std::vector<Finding>& out) {
  if (!file.is_header) return;

  const bool has_pragma =
      std::any_of(file.raw.begin(), file.raw.end(), [](const std::string& l) {
        return l.find("#pragma once") != std::string::npos;
      });
  if (!has_pragma) {
    add(out, file, 1, "header-self-containment",
        "header lacks #pragma once");
  }

  auto includes_any = [&](const std::array<std::string_view, 4>& headers) {
    return std::any_of(
        file.includes.begin(), file.includes.end(), [&](const Include& inc) {
          return std::any_of(headers.begin(), headers.end(),
                             [&](std::string_view h) {
                               return !h.empty() && inc.target == h;
                             });
        });
  };

  // Report each missing std header once, at its first use.
  std::vector<std::string_view> reported;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string_view line = file.code[i];
    std::size_t pos = line.find("std::");
    while (pos != std::string_view::npos) {
      std::size_t start = pos + 5;
      std::size_t end = start;
      while (end < line.size() && is_ident_char(line[end])) ++end;
      const std::string_view symbol = line.substr(start, end - start);
      for (const auto& entry : kStdSymbols) {
        if (symbol != entry.symbol) continue;
        if (includes_any(entry.headers)) break;
        if (std::find(reported.begin(), reported.end(), entry.symbol) !=
            reported.end()) {
          break;
        }
        reported.push_back(entry.symbol);
        add(out, file, i + 1, "header-self-containment",
            "uses std::" + std::string(entry.symbol) +
                " but does not include <" + std::string(entry.headers[0]) +
                ">");
        break;
      }
      pos = line.find("std::", end);
    }
  }
}

// ---------------------------------------------------------------------------
// unchecked-return: datagram send/recv report delivery failure through
// their return value; discarding it silently loses packets (and skews the
// drop accounting the benchmarks rely on).
// ---------------------------------------------------------------------------

constexpr std::string_view kMustCheck[] = {"send_to", "sendto", "recvfrom",
                                           "recv_from"};

// Statement-position call: optional object/namespace chain from the start
// of the line, then the call itself — i.e. the result has nowhere to go.
bool discards_result(std::string_view line, std::string_view fn) {
  const std::size_t i = line.find_first_not_of(" \t");
  if (i == std::string_view::npos) return false;
  const std::size_t pos = find_token(line, fn, i);
  if (pos == std::string_view::npos) return false;
  // Everything before the call must be an identifier chain glued with
  // '.', '->', or '::' (e.g. `endpoint->`, `net::UdpEndpoint::`). Any
  // other prefix (assignment, if-condition, return, a type name) means
  // the result is consumed or the token is a declaration.
  for (std::size_t j = i; j < pos; ++j) {
    const char c = line[j];
    const bool chain_char =
        is_ident_char(c) || c == '.' || c == ':' ||
        (c == '-' && j + 1 < pos && line[j + 1] == '>') ||
        (c == '>' && j > i && line[j - 1] == '-');
    if (!chain_char) return false;
  }
  std::size_t after = pos + fn.size();
  while (after < line.size() &&
         std::isspace(static_cast<unsigned char>(line[after])) != 0) {
    ++after;
  }
  return after < line.size() && line[after] == '(';
}

// True if line i begins a new statement: the previous non-blank code line
// closed one. Guards against flagging the continuation lines of a wrapped
// assignment (`const ssize_t sent =` / `    ::sendto(...)`).
bool statement_start(const SourceFile& file, std::size_t i) {
  for (std::size_t j = i; j-- > 0;) {
    const std::string& prev = file.code[j];
    const std::size_t last = prev.find_last_not_of(" \t");
    if (last == std::string::npos) continue;  // blank (or scrubbed comment)
    const char c = prev[last];
    return c == ';' || c == '{' || c == '}';
  }
  return true;  // first code line of the file
}

void check_unchecked_return(const SourceFile& file,
                            std::vector<Finding>& out) {
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    for (const auto fn : kMustCheck) {
      if (discards_result(file.code[i], fn) && statement_start(file, i)) {
        add(out, file, i + 1, "unchecked-return",
            "result of " + std::string(fn) +
                " discarded; check it (and count drops) or cast to void "
                "with a rationale");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// obs-hot-path: the metric/trace emit helpers run on packet hot paths.
// They must be declared noexcept, and their signatures must not take
// allocation-prone std types — an emit that can throw or allocate is an
// emit that can stall the poll loop.
// ---------------------------------------------------------------------------

constexpr std::string_view kHotHelpers[] = {
    "inc",        "add",       "sub",           "set",
    "observe",    "record",    "append",        "emit",
    "emit_span",
    "span_begin", "span_end",  "span_complete", "span_event",
};

constexpr std::string_view kAllocProneTypes[] = {
    "std::string",        "std::vector", "std::map",
    "std::unordered_map", "std::deque",  "std::list",
    "std::set",           "std::function",
};

// Heuristic declaration test: the helper name is preceded by a return type
// (possibly through a Class:: qualifier), not by an object chain
// (`x.add(`), a bare statement call, or `return`.
bool looks_like_declaration(std::string_view line, std::size_t name_pos) {
  std::size_t j = name_pos;
  while (j >= 2 && line[j - 1] == ':' && line[j - 2] == ':') {
    j -= 2;
    while (j > 0 && is_ident_char(line[j - 1])) --j;
  }
  while (j > 0 &&
         std::isspace(static_cast<unsigned char>(line[j - 1])) != 0) {
    --j;
  }
  if (j == 0) return false;  // statement-position call (or wrapped line)
  const char prev = line[j - 1];
  if (prev == '.') return false;                             // x.add(
  if (prev == '>' && j >= 2 && line[j - 2] == '-') return false;  // x->add(
  if (prev == '&' || prev == '*') return true;  // ref/ptr return type
  if (!is_ident_char(prev)) return false;       // '(', ',', '=', '{', ';'
  std::size_t end = j;
  while (j > 0 && is_ident_char(line[j - 1])) --j;
  const std::string_view word = line.substr(j, end - j);
  return word != "return";
}

void check_obs_hot_path(const SourceFile& file, std::vector<Finding>& out) {
  if (!starts_with(file.path, "src/obs/")) return;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string_view line = file.code[i];
    for (const auto name : kHotHelpers) {
      std::size_t pos = find_token(line, name);
      for (; pos != std::string_view::npos;
           pos = find_token(line, name, pos + 1)) {
        std::size_t open = pos + name.size();
        while (open < line.size() &&
               std::isspace(static_cast<unsigned char>(line[open])) != 0) {
          ++open;
        }
        if (open >= line.size() || line[open] != '(') continue;
        if (!looks_like_declaration(line, pos)) continue;

        // Collect the parameter list (possibly wrapped) and the text that
        // follows the closing ')' (where noexcept must appear).
        std::string signature;
        std::string tail;
        int depth = 0;
        bool closed = false;
        for (std::size_t j = i; j < file.code.size() && j < i + 8; ++j) {
          const std::string& l = file.code[j];
          std::size_t k = (j == i) ? open : 0;
          for (; k < l.size(); ++k) {
            if (l[k] == '(') {
              ++depth;
            } else if (l[k] == ')') {
              --depth;
              if (depth == 0) {
                closed = true;
                ++k;
                break;
              }
            }
            signature += l[k];
          }
          if (closed) {
            tail.assign(l, k, std::string::npos);
            if (j + 1 < file.code.size()) {
              tail += ' ';
              tail += file.code[j + 1];
            }
            break;
          }
        }
        if (!closed) continue;
        if (tail.find("= delete") != std::string::npos) continue;
        if (tail.find("noexcept") == std::string::npos) {
          add(out, file, i + 1, "obs-hot-path",
              "hot-path emit helper '" + std::string(name) +
                  "' is not noexcept; emit paths must not throw (they run "
                  "on packet hot paths)");
        }
        for (const auto type : kAllocProneTypes) {
          if (signature.find(type) != std::string::npos) {
            add(out, file, i + 1, "obs-hot-path",
                "hot-path emit helper '" + std::string(name) +
                    "' takes allocation-prone " + std::string(type) +
                    " in its signature; pass string literals / PODs / "
                    "views instead");
            break;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism pass. The deterministic tiers promise: same seed, same trace,
// byte for byte. Hash-map iteration order (libstdc++ bucket order varies
// with insertion history and, across platforms, with hash seeds), pointer
// comparisons (ASLR), and free-running threads all break that promise in
// ways no test on a single machine will catch.
// ---------------------------------------------------------------------------

constexpr std::string_view kDeterministicDirs[] = {
    "src/sim/",
    "src/cadet/",
    "src/entropy/",
    "src/testbed/",
};

bool in_deterministic_tier(const SourceFile& file) {
  return std::any_of(
      std::begin(kDeterministicDirs), std::end(kDeterministicDirs),
      [&](std::string_view d) { return starts_with(file.path, d); });
}

// unordered-iteration: traversal of a std::unordered_* container in a
// deterministic tier. Known container identifiers come from this file's
// own declarations plus those imported from directly-included headers
// (so economics.cpp knows about the member economics.h declares).

// The range expression of a single-line range-for: text after the first
// top-level ':' (skipping '::') inside the for-parens. Empty if this is
// not a range-for.
std::string_view range_for_expr(std::string_view line) {
  const std::size_t kw = find_token(line, "for");
  if (kw == std::string_view::npos) return {};
  const std::size_t open = line.find('(', kw + 3);
  if (open == std::string_view::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '(' || c == '[') {
      ++depth;
    } else if (c == ')' || c == ']') {
      if (--depth == 0) return line.substr(i, 0);  // plain for, no ':'
    } else if (c == ':' && depth == 1) {
      if (i + 1 < line.size() && line[i + 1] == ':') {
        ++i;  // '::' qualifier, skip both
        continue;
      }
      if (i > 0 && line[i - 1] == ':') continue;
      // Range expr runs to the matching ')'.
      std::size_t end = i + 1;
      int d = depth;
      for (; end < line.size(); ++end) {
        if (line[end] == '(' || line[end] == '[') ++d;
        if (line[end] == ')' || line[end] == ']') {
          if (--d == 0) break;
        }
      }
      return line.substr(i + 1, end - (i + 1));
    }
  }
  return {};
}

void check_unordered_iteration(const SourceFile& file,
                               std::vector<Finding>& out) {
  if (!in_deterministic_tier(file)) return;
  std::vector<std::string_view> names;
  for (const auto& n : file.unordered_members) names.push_back(n);
  for (const auto& n : file.imported_unordered) names.push_back(n);
  if (names.empty()) return;

  constexpr std::string_view kBeginCalls[] = {".begin(", ".cbegin(",
                                              ".rbegin(", ".crbegin("};
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string_view line = file.code[i];
    const std::string_view range = range_for_expr(line);
    for (const auto name : names) {
      bool hit = false;
      if (!range.empty() && find_token(range, name) != std::string_view::npos) {
        hit = true;
      }
      std::size_t pos = find_token(line, name);
      for (; !hit && pos != std::string_view::npos;
           pos = find_token(line, name, pos + 1)) {
        const std::string_view after = line.substr(pos + name.size());
        for (const auto call : kBeginCalls) {
          if (after.starts_with(call)) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        add(out, file, i + 1, "unordered-iteration",
            "iteration over unordered container '" + std::string(name) +
                "' in a deterministic tier: bucket order depends on "
                "insertion history and hash seed, so it leaks into traces "
                "and metrics; use std::map / sorted keys instead");
        break;  // one finding per line is enough
      }
    }
  }
}

// pointer-keyed-order: ordered containers keyed on pointer values, and raw
// address comparisons. Pointer order is allocation order — different every
// run under ASLR.

constexpr std::string_view kOrderedContainers[] = {"map", "set", "multimap",
                                                   "multiset"};

// First top-level template argument after the '<' at `open`.
std::string_view first_template_arg(std::string_view line, std::size_t open) {
  int depth = 1;
  const std::size_t start = open + 1;
  for (std::size_t i = start; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '<' || c == '(') ++depth;
    if (c == '>' || c == ')') --depth;
    if ((c == ',' && depth == 1) || depth == 0) {
      return line.substr(start, i - start);
    }
  }
  return line.substr(start);
}

void check_pointer_keyed_order(const SourceFile& file,
                               std::vector<Finding>& out) {
  if (!starts_with(file.path, "src/")) return;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string_view line = file.code[i];
    bool flagged = false;
    for (const auto token : kOrderedContainers) {
      std::size_t pos = find_token(line, token);
      for (; !flagged && pos != std::string_view::npos;
           pos = find_token(line, token, pos + 1)) {
        // Require the std:: qualifier so a project type named `map` or a
        // scrubbed word does not trip the rule.
        if (pos < 5 || line.substr(pos - 5, 5) != "std::") continue;
        std::size_t open = pos + token.size();
        while (open < line.size() &&
               std::isspace(static_cast<unsigned char>(line[open])) != 0) {
          ++open;
        }
        if (open >= line.size() || line[open] != '<') continue;
        const std::string_view key = first_template_arg(line, open);
        if (key.find('*') != std::string_view::npos) {
          add(out, file, i + 1, "pointer-keyed-order",
              "std::" + std::string(token) +
                  " keyed on a pointer type orders by address, which "
                  "differs every run (ASLR); key on a stable id instead");
          flagged = true;
        }
      }
    }
    // std::less<T*> — explicit pointer comparator.
    std::size_t pos = find_token(line, "less");
    for (; pos != std::string_view::npos;
         pos = find_token(line, "less", pos + 1)) {
      if (pos < 5 || line.substr(pos - 5, 5) != "std::") continue;
      const std::size_t open = pos + 4;
      if (open < line.size() && line[open] == '<' &&
          first_template_arg(line, open).find('*') !=
              std::string_view::npos) {
        add(out, file, i + 1, "pointer-keyed-order",
            "std::less over a pointer type compares addresses; order by a "
            "stable id instead");
      }
    }
    // `&a < &b` — both sides address-of (exclude && and shifts).
    for (std::size_t j = 1; j + 1 < line.size(); ++j) {
      if (line[j] != '<') continue;
      if (line[j - 1] == '<' || line[j + 1] == '<' || line[j + 1] == '=') {
        continue;
      }
      // Left operand: identifier chain, then '&' not preceded by '&'.
      std::size_t l = j;
      while (l > 0 &&
             std::isspace(static_cast<unsigned char>(line[l - 1])) != 0) {
        --l;
      }
      while (l > 0 && (is_ident_char(line[l - 1]) || line[l - 1] == '.' ||
                       line[l - 1] == '_')) {
        --l;
      }
      if (l == 0 || line[l - 1] != '&' || (l >= 2 && line[l - 2] == '&')) {
        continue;
      }
      // Right operand: optional spaces, then '&' not followed by '&'.
      std::size_t r = j + 1;
      while (r < line.size() &&
             std::isspace(static_cast<unsigned char>(line[r])) != 0) {
        ++r;
      }
      if (r < line.size() && line[r] == '&' &&
          (r + 1 >= line.size() || line[r + 1] != '&')) {
        add(out, file, i + 1, "pointer-keyed-order",
            "comparing object addresses with '<' yields a different order "
            "every run; compare stable ids instead");
        break;
      }
    }
  }
}

// thread-in-sim: the deterministic tiers are single-threaded by contract —
// the simulator owns the event order. A std::thread (or an atomic standing
// in for one) inside them is either dead weight or a reproducibility bug.

struct ThreadToken {
  std::string_view token;
  bool call_only;
};

constexpr ThreadToken kThreadTokens[] = {
    {"thread", false},          {"jthread", false},
    {"async", false},           {"future", false},
    {"promise", false},         {"packaged_task", false},
    {"atomic", false},          {"atomic_flag", false},
    {"mutex", false},           {"shared_mutex", false},
    {"recursive_mutex", false}, {"timed_mutex", false},
    {"condition_variable", false},
    {"condition_variable_any", false},
    {"lock_guard", false},      {"unique_lock", false},
    {"scoped_lock", false},     {"shared_lock", false},
    {"call_once", false},       {"once_flag", false},
    {"latch", false},           {"barrier", false},
    {"counting_semaphore", false},
    {"binary_semaphore", false},
    {"this_thread", false},
};

constexpr std::string_view kThreadHeaders[] = {
    "thread", "atomic", "mutex", "shared_mutex", "future",
    "condition_variable", "latch", "barrier", "semaphore", "stop_token",
};

void check_thread_in_sim(const SourceFile& file, std::vector<Finding>& out) {
  if (!in_deterministic_tier(file)) return;
  for (const Include& inc : file.includes) {
    for (const auto header : kThreadHeaders) {
      if (inc.target == header) {
        add(out, file, inc.line, "thread-in-sim",
            "#include <" + std::string(header) +
                "> in a deterministic tier; the simulator owns event order "
                "— keep threading out of src/{sim,cadet,entropy,testbed}");
      }
    }
  }
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string_view line = file.code[i];
    for (const auto& spec : kThreadTokens) {
      // Require the std:: qualifier: `thread`, `barrier`, `future` are
      // ordinary English that shows up in CADET identifiers.
      std::size_t pos = find_token(line, spec.token);
      for (; pos != std::string_view::npos;
           pos = find_token(line, spec.token, pos + 1)) {
        if (pos < 5 || line.substr(pos - 5, 5) != "std::") continue;
        add(out, file, i + 1, "thread-in-sim",
            "std::" + std::string(spec.token) +
                " in a deterministic tier; scheduling belongs to the "
                "simulator (src/sim), wall-clock concurrency to src/net");
        break;
      }
    }
    if (has_token(line, "pthread_create", true)) {
      add(out, file, i + 1, "thread-in-sim",
          "pthread_create in a deterministic tier; the simulator owns "
          "event order");
    }
  }
}

// ---------------------------------------------------------------------------
// unannotated-mutex: every mutex member in src/ must guard something —
// i.e. the file must put CADET_GUARDED_BY(<mutex>) (or PT_GUARDED_BY) on
// at least one member. A mutex that guards nothing is invisible to clang's
// -Wthread-safety, so lock discipline around it is unchecked.
// ---------------------------------------------------------------------------

constexpr std::string_view kMutexTypes[] = {
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "Mutex",
};

void check_unannotated_mutex(const SourceFile& file,
                             std::vector<Finding>& out) {
  if (!starts_with(file.path, "src/")) return;
  // The annotation header itself wraps a raw std::mutex — that is the one
  // sanctioned bare mutex in the tree.
  if (file.path == "src/util/thread_annotations.h") return;

  struct Decl {
    std::string name;
    std::size_t line;
  };
  std::vector<Decl> decls;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string_view line = file.code[i];
    for (const auto type : kMutexTypes) {
      std::size_t pos = find_token(line, type);
      for (; pos != std::string_view::npos;
           pos = find_token(line, type, pos + 1)) {
        // Declarations only: `std::mutex name;` / `util::Mutex name;`.
        const bool std_q = pos >= 5 && line.substr(pos - 5, 5) == "std::";
        const bool util_q = pos >= 6 && line.substr(pos - 6, 6) == "util::";
        if (!std_q && !util_q) continue;
        std::size_t j = pos + type.size();
        while (j < line.size() &&
               std::isspace(static_cast<unsigned char>(line[j])) != 0) {
          ++j;
        }
        const std::size_t start = j;
        while (j < line.size() && is_ident_char(line[j])) ++j;
        if (j == start) continue;  // util::MutexLock lock(mu_), casts, ...
        const std::string name(line.substr(start, j - start));
        while (j < line.size() &&
               std::isspace(static_cast<unsigned char>(line[j])) != 0) {
          ++j;
        }
        if (j < line.size() && (line[j] == ';' || line[j] == '{')) {
          decls.push_back(Decl{name, i + 1});
        }
      }
    }
  }
  if (decls.empty()) return;

  // Which mutex names appear inside a CADET_GUARDED_BY / PT_GUARDED_BY?
  std::vector<std::string> guarded;
  for (const std::string& raw_line : file.code) {
    for (const auto macro : {std::string_view("CADET_GUARDED_BY"),
                             std::string_view("CADET_PT_GUARDED_BY")}) {
      std::size_t pos = find_token(raw_line, macro);
      for (; pos != std::string_view::npos;
           pos = find_token(raw_line, macro, pos + 1)) {
        const std::size_t open = raw_line.find('(', pos + macro.size());
        if (open == std::string::npos) continue;
        for (std::string arg : call_args(raw_line, open)) {
          std::erase_if(arg, [](char c) {
            return std::isspace(static_cast<unsigned char>(c)) != 0;
          });
          guarded.push_back(std::move(arg));
        }
      }
    }
  }
  for (const Decl& decl : decls) {
    if (std::find(guarded.begin(), guarded.end(), decl.name) !=
        guarded.end()) {
      continue;
    }
    add(out, file, decl.line, "unannotated-mutex",
        "mutex '" + decl.name +
            "' guards no member: annotate the data it protects with "
            "CADET_GUARDED_BY(" + decl.name +
            ") (util/thread_annotations.h) so clang -Wthread-safety can "
            "check the lock discipline");
  }
}

}  // namespace

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"forbidden-rng",
       "ad-hoc PRNG use outside util/rng and crypto/csprng", //
       check_forbidden_rng},
      {"sim-purity",
       "wall-clock reads inside the deterministic tiers", //
       check_sim_purity},
      {"secret-hygiene",
       "elidable memset / timing-leaky memcmp on secret material", //
       check_secret_hygiene},
      {"header-self-containment",
       "headers must carry #pragma once and their own std includes", //
       check_header_self_containment},
      {"unchecked-return",
       "transport send/recv results must not be discarded", //
       check_unchecked_return},
      {"obs-hot-path",
       "obs emit helpers must be noexcept and allocation-free", //
       check_obs_hot_path},
      {"unordered-iteration",
       "hash-order traversal inside the deterministic tiers", //
       check_unordered_iteration},
      {"pointer-keyed-order",
       "pointer-keyed ordered containers / address comparisons", //
       check_pointer_keyed_order},
      {"thread-in-sim",
       "threading primitives inside the deterministic tiers", //
       check_thread_in_sim},
      {"unannotated-mutex",
       "mutex members must guard data via CADET_GUARDED_BY", //
       check_unannotated_mutex},
  };
  return kRules;
}

}  // namespace cadet::lint
