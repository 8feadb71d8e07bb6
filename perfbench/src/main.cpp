// vbench — the repository benchmark's measuring program. run.py builds it
// and calls it; see README.md for the workloads and metrics.
//
//   vbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//          [--size full|small]
//          [--expected FILE [--strict]] [--perturb KEY]
//          [--oracle] [--write-expected FILE] [--machine TEXT]
//
// --expected names the values the run must reproduce: the stored
// expectations (with --strict, every check needs one) or the output of an
// --oracle run on the same inputs. The last line of stdout is the result:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Outcome (*run)(const Options&, Expectation&);
};

constexpr Workload kWorkloads[] = {
    {"sim_fabric_512", run_sim_fabric},
    {"tenant_day", run_tenant_day},
    {"local_wordcount", run_local_wordcount},
    {"ml_clustering", run_ml_clustering},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "vbench: %s\nusage: vbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--size full|small] [--expected FILE [--strict]] "
               "[--perturb KEY] [--oracle] [--write-expected FILE] [--machine TEXT]\n",
               why);
  return 2;
}

/// Peak resident set of this process image, in MiB. VmHWM, because Linux
/// carries ru_maxrss across exec: a vbench started by a larger parent
/// (run.py's Python) would report the parent's peak instead of its own.
/// ru_maxrss is the fallback where /proc is missing.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // both are in KiB
}

/// Replace the lines of `prefix` in the expectations file with `values`.
bool write_expected(const std::string& path, const std::string& prefix,
                    const std::map<std::string, std::string>& values) {
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(prefix + ".", 0) != 0) kept.push_back(line);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const std::string& line : kept) out << line << "\n";
  for (const auto& [key, value] : values) out << prefix << "." << key << " " << value << "\n";
  return static_cast<bool>(out);
}

/// Parse all of `text` as a number; false on trailing garbage or overflow.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && ptr != text;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.threads = std::max(1U, std::thread::hardware_concurrency());
  std::string expected_path, perturb_key, write_path, machine;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--oracle") {
      opt.oracle = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      if (!parse_number(v, opt.seed)) return usage("--seed must be a non-negative integer");
    } else if (arg == "--seconds") {
      if (!parse_number(v, opt.seconds) || !(opt.seconds > 0.0)) {
        return usage("--seconds must be a number > 0");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--size") {
      if (std::strcmp(v, "full") != 0 && std::strcmp(v, "small") != 0) {
        return usage("--size must be full or small");
      }
      opt.size = std::strcmp(v, "full") == 0 ? Size::Full : Size::Small;
    } else if (arg == "--expected") {
      expected_path = v;
    } else if (arg == "--perturb") {
      perturb_key = v;
    } else if (arg == "--write-expected") {
      write_path = v;
    } else if (arg == "--machine") {
      machine = v;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

  // Measured runs never use the library's reference paths, whatever the
  // calling environment says; oracle runs switch them on themselves.
  setenv("VHADOOP_FLUID_REFERENCE", "0", 1);
  setenv("VHADOOP_RUNNER_REFERENCE", "0", 1);

  const std::string prefix = opt.workload + "." + size_name(opt.size);
  Expectation expect(strict);
  if (!expected_path.empty() && !expect.load(expected_path, prefix)) {
    std::fprintf(stderr, "vbench: cannot read %s\n", expected_path.c_str());
    return 1;
  }
  if (!perturb_key.empty() && !expect.perturb(perturb_key)) {
    std::fprintf(stderr, "vbench: no expected value %s to perturb\n", perturb_key.c_str());
    return 1;
  }

  std::printf("vbench: workload=%s size=%s seed=%llu seconds=%g trace=%d threads=%u nproc=%u "
              "compiler=\"%s\" build=%s %s\n",
              opt.workload.c_str(), size_name(opt.size),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.threads, std::thread::hardware_concurrency(), VBENCH_COMPILER,
              VBENCH_BUILD_TYPE, machine.c_str());

  const Outcome out = workload->run(opt, expect);

  if (opt.oracle) {
    for (const auto& [key, value] : out.oracle.values()) {
      std::printf("%s.%s %s\n", prefix.c_str(), key.c_str(), value.c_str());
    }
    return 0;
  }
  if (!write_path.empty()) {
    if (!write_expected(write_path, prefix, expect.values())) {
      std::fprintf(stderr, "vbench: cannot write %s\n", write_path.c_str());
      return 1;
    }
    std::printf("vbench: wrote %s.* to %s\n", prefix.c_str(), write_path.c_str());
  }

  bool correct = out.failed == 0 && out.setup_failed == 0;
  for (const std::string& key : expect.unobserved()) {
    std::fprintf(stderr, "vbench: expected value %s was never checked\n", key.c_str());
    correct = false;
  }
  // Untraced runs report the end-to-end metrics; traced runs the per-layer
  // metrics the workload measured (run.py adds the ones it never calls).
  std::vector<std::pair<std::string, Metric>> metrics;
  if (opt.trace) {
    metrics.assign(out.layers.begin(), out.layers.end());
  } else {
    metrics = {{"wall_s", {out.wall_s, "s"}},
               {"setup_s", {out.setup_s, "s"}},
               {"peak_rss_mb", {peak_rss_mb(), "MB"}}};
  }
  std::string json;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) correct = false;
    json += json.empty() ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " +
            format_number(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), json.c_str());
  return 0;
}
