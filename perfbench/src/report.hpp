#pragma once

// Shared plumbing of the repository benchmark: the host stopwatch, sample
// statistics, exact correctness checks and the metric report.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// vlint: allow(no-wall-clock) host-clock stopwatch around the benchmark's own calls into the library; readings only reach the printed report, never simulation state
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v`; the mean of the middle pair for even sizes, 0 when empty.
double median(std::vector<double> v);
/// Quantile `q` in [0, 1] with linear interpolation between ranks; 0 when
/// empty.
double quantile(std::vector<double> v, double q);
/// Share of the total held by the largest `share` fraction of samples
/// (at least one sample); 0 when the total is 0.
double top_share(std::vector<double> v, double share);

/// Input scale of a workload: `Full` is the benchmarked size, `Small` the
/// reduced size the self-test runs.
enum class Size { Full, Small };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  unsigned threads = 1;  ///< host threads the real data path uses: nproc
  /// Run the workload's reference oracle once and print its checks instead
  /// of measuring.
  bool oracle = false;
};

const char* size_name(Size size);

/// FNV-1a over byte strings: the output digest of a job or driver call.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(double v);
  void add(std::int64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Exact values one group of operations produced, keyed by name. Numbers
/// are stored as "%.17g" so that equality is bit-equality.
class Checks {
 public:
  void put(const std::string& key, double value);
  void put(const std::string& key, std::string value);
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// The values checks must reproduce. Known values come from the stored
/// expectations (default seed) or from a reference-oracle run (any other
/// seed). A key with no known value is pinned to its first observation
/// unless the expectation is strict, so later repetitions must repeat it
/// bit for bit either way.
class Expectation {
 public:
  explicit Expectation(bool strict) : strict_(strict) {}

  /// Load "<prefix>.<key> <value>" lines of `path` as known values.
  /// Returns false when the file cannot be read.
  bool load(const std::string& path, const std::string& prefix);
  void set(const std::string& key, const std::string& text);
  /// Replace a known value by one that cannot match (self-test hook).
  bool perturb(const std::string& key);

  /// Check results: true when every value in `checks` equals the
  /// expectation. Reports the first mismatch of each key on stderr.
  bool matches(const Checks& checks) { return compare(checks, /*work_counts=*/false); }
  /// Check work counts (comparisons, solver recomputes, events): an
  /// optimisation may change them, so a stored value that differs is only
  /// reported and replaced by the first observation; within a run they must
  /// repeat bit for bit.
  bool repeats(const Checks& checks) { return compare(checks, /*work_counts=*/true); }

  /// Known keys that no check has reported.
  std::vector<std::string> unobserved() const;
  /// Every known or pinned value, for writing expectations.
  std::map<std::string, std::string> values() const;

 private:
  struct Entry {
    std::string text;
    bool observed = false;
    bool reported = false;
  };
  bool compare(const Checks& checks, bool work_counts);

  bool strict_;
  std::map<std::string, Entry> entries_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Set-up steps (cold jobs) whose checks failed; they are not ops but
  /// still make the run incorrect.
  std::int64_t setup_failed = 0;
  /// Always measured.
  double wall_s = 0.0;
  double setup_s = 0.0;
  /// Per-layer metrics the workload measured (traced runs report them).
  std::map<std::string, Metric> layers;
  /// Reference-oracle checks (oracle runs only).
  Checks oracle;
};

/// "%.17g": every digit of a double, so the text round-trips exactly.
std::string format_number(double v);

}  // namespace perfbench
