// cadet_e2e — the end-to-end benchmark: four workloads, every end-to-end
// metric with its unit, correctness gates, and (with --trace-out) per-layer
// self times timed from outside the program. See README.md.
//
// Usage:
//   cadet_e2e [--workload NAME|all] [--seed N] [--seconds S] [--out FILE]
//             [--trace-out DIR] [--smoke] [--list]
//
// Each workload runs in its own forked child, so its peak RSS is its own.
// Exit status: 0 when every gate passed, 1 when a gate failed or a child
// died, 2 on a usage error.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/log.h"
#include "workloads.h"

namespace {

using cadet::e2e::Metric;
using cadet::e2e::Options;
using cadet::e2e::Report;
using cadet::e2e::Workload;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- child -> parent wire: one record per line, space separated --------

void send_report(int fd, const Report& r) {
  std::ostringstream out;
  out.precision(17);
  for (const Metric& m : r.metrics) {
    out << "metric " << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  for (const Metric& m : r.layers) {
    out << "layer " << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  for (const std::string& f : r.failures) out << "fail " << f << '\n';
  out << "count " << r.attempted << ' ' << r.failed << ' ' << r.reps << ' '
      << r.traced_reps << ' ' << r.latency_samples << '\n';
  const std::string text = out.str();
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

bool parse_report(const std::string& text, Report& r) {
  std::istringstream in(text);
  std::string line;
  bool counted = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "metric" || kind == "layer") {
      Metric m;
      fields >> m.name >> m.value >> m.unit;
      (kind == "metric" ? r.metrics : r.layers).push_back(m);
    } else if (kind == "fail") {
      r.failures.push_back(line.substr(5));
    } else if (kind == "count") {
      fields >> r.attempted >> r.failed >> r.reps >> r.traced_reps >>
          r.latency_samples;
      counted = true;
    }
  }
  return counted;
}

/// Runs `w` in a forked child and fills `r`, adding the child's peak RSS.
bool run_forked(const Workload& w, const Options& opt, Report& r) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      send_report(fds[1], w.run(opt));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cadet_e2e: %s: %s\n", w.name, e.what());
      code = 1;
    }
    ::close(fds[1]);
    std::_Exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  if (::wait4(pid, &status, 0, &usage) != pid) return false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  if (!parse_report(text, r)) return false;
  // ru_maxrss is in KiB on Linux.
  r.metrics.push_back(Metric{
      "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  return true;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("  %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void write_metrics(std::FILE* f, const std::vector<Metric>& metrics) {
  std::fputc('{', f);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", json_escape(metrics[i].name).c_str(),
                 json_number(metrics[i].value).c_str(),
                 json_escape(metrics[i].unit).c_str());
  }
  std::fputc('}', f);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME|all] [--seed N] [--seconds S] "
               "[--out FILE] [--trace-out DIR] [--smoke] [--list]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string only = "all";
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      only = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_dir = argv[++i];
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.traced = true;  // the traced-vs-untraced gate is part of the smoke
    } else if (arg == "--list") {
      for (const Workload& w : cadet::e2e::workloads()) {
        std::printf("%-11s %s\n", w.name, w.why);
      }
      return 0;
    } else {
      return usage(argv[0]);
    }
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : cadet::e2e::workloads()) {
    if (only == "all" || only == w.name) selected.push_back(&w);
  }
  if (selected.empty() || !(opt.seconds > 0.0)) return usage(argv[0]);
  if (!opt.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cadet_e2e: cannot create %s\n",
                   opt.trace_dir.c_str());
      return 2;
    }
  }

  // Registering 1,024 clients at the default level floods stderr with
  // "init nonce open failed" warnings (see README.md, findings).
  cadet::util::set_log_level(cadet::util::LogLevel::Error);
  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  opt.threads = static_cast<unsigned>(std::min(4L, nproc));

  const std::string cpu = cpu_model();
  std::printf("cadet_e2e: seed %llu, %.0f s per workload%s%s\n",
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.smoke ? ", smoke" : "", opt.traced ? ", traced" : "");
  std::printf("host: %s, nproc %ld, j %u, %s, %s, commit %s\n",
              cpu.c_str(), nproc, opt.threads, kCompiler,
              CADET_E2E_BUILD_TYPE, CADET_E2E_COMMIT);

  std::vector<Report> reports(selected.size());
  std::vector<bool> ran(selected.size(), false);
  bool all_ok = true;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const Workload& w = *selected[k];
    ran[k] = run_forked(w, opt, reports[k]);
    const Report& r = reports[k];
    const bool ok = ran[k] && r.failures.empty();
    all_ok = all_ok && ok;
    std::printf("\n== %s: %llu reps (+%llu traced), %llu ops, %llu failed, "
                "%llu latency samples\n",
                w.name, static_cast<unsigned long long>(r.reps),
                static_cast<unsigned long long>(r.traced_reps),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.latency_samples));
    print_metrics("end to end (untraced)", r.metrics);
    print_metrics("per layer (traced)", r.layers);
    if (!ran[k]) std::printf("  GATE FAILED: workload child did not finish\n");
    for (const std::string& f : r.failures) {
      std::printf("  GATE FAILED: %s\n", f.c_str());
    }
    if (ok) std::printf("  gates: ok\n");
    std::fflush(stdout);
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cadet_e2e: cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\"benchmark\": \"cadet_e2e\", \"correct\": %s,\n"
                 " \"header\": {\"cpu_model\": \"%s\", \"nproc\": %ld, "
                 "\"j\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                 "\"git_commit\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
                 "\"smoke\": %s, \"traced\": %s},\n \"workloads\": {",
                 all_ok ? "true" : "false", json_escape(cpu).c_str(), nproc,
                 opt.threads, json_escape(kCompiler).c_str(),
                 CADET_E2E_BUILD_TYPE, CADET_E2E_COMMIT,
                 static_cast<unsigned long long>(opt.seed),
                 json_number(opt.seconds).c_str(),
                 opt.smoke ? "true" : "false", opt.traced ? "true" : "false");
    for (std::size_t k = 0; k < selected.size(); ++k) {
      const Report& r = reports[k];
      std::fprintf(f, "%s\n  \"%s\": {\"why\": \"%s\", \"correct\": %s, "
                      "\"failures\": [",
                   k == 0 ? "" : ",", selected[k]->name,
                   json_escape(selected[k]->why).c_str(),
                   ran[k] && r.failures.empty() ? "true" : "false");
      for (std::size_t i = 0; i < r.failures.size(); ++i) {
        std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                     json_escape(r.failures[i]).c_str());
      }
      std::fprintf(f,
                   "], \"attempted\": %llu, \"failed\": %llu, \"reps\": %llu, "
                   "\"traced_reps\": %llu, \"latency_samples\": %llu,\n"
                   "   \"metrics\": ",
                   static_cast<unsigned long long>(r.attempted),
                   static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.reps),
                   static_cast<unsigned long long>(r.traced_reps),
                   static_cast<unsigned long long>(r.latency_samples));
      write_metrics(f, r.metrics);
      std::fputs(",\n   \"layers\": ", f);
      write_metrics(f, r.layers);
      std::fputc('}', f);
    }
    std::fputs("}}\n", f);
    if (std::fclose(f) != 0) return 2;
  }
  std::printf("\n%s\n", all_ok ? "all gates passed" : "GATES FAILED");
  return all_ok ? 0 : 1;
}
