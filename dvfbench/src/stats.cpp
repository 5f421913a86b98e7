#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

namespace dvfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t n = values.size();
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void RunResult::fail(const std::string& why) {
  correct = false;
  if (problems.size() < 8) {
    problems.push_back(why);
  }
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string result_line(const RunResult& result) {
  bool correct = result.correct;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      correct = false;
      value = 0.0;
    }
    char number[40];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace dvfbench
