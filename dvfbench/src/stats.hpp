// Order statistics, timing and the result line the benchmark prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dvfbench {

/// Median of `values` (mean of the middle two for an even count); 0 for an
/// empty input.
[[nodiscard]] double median(std::vector<double> values);

/// The q-quantile (0 <= q <= 1) by linear interpolation between closest
/// ranks, the "inclusive" method; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One printed metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  /// Records a failed correctness check: marks the outputs incorrect and
  /// keeps the first few explanations for stderr.
  void fail(const std::string& why);
  void add(std::string name, double value, std::string unit);
};

/// The final line: {"correct":..,"attempted":..,"failed":..,"metrics":{
/// "name":{"value":..,"unit":".."},...}} with every value printed to 17
/// significant digits. A non-finite value is printed as 0 and marks the
/// line incorrect, since JSON has no spelling for it.
[[nodiscard]] std::string result_line(const RunResult& result);

/// Seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) of process `pid` in MiB, from /proc; 0 when
/// unavailable. pid 0 means the calling process.
[[nodiscard]] double peak_rss_mib(int pid = 0);

/// SplitMix64: the benchmark's own seeded generator for inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

}  // namespace dvfbench
