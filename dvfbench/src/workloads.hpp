// The three measured paths (served evaluation, trace replay, injection
// campaigns), the workloads built from them, and the per-layer probes of
// the traced mode.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "stats.hpp"

namespace dvfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dvfc;      ///< path of the dvfc binary
  std::string repo;      ///< repository root (models/*.aspen live there)
  std::string workdir;   ///< scratch directory for sockets, traces, journals
  double start_s = 0.0;  ///< process start on the steady clock
};

// Each path is set up by its constructor, then measured in units: one call
// to unit() runs a fixed amount of work, checks its outputs and, when
// `measured`, keeps its samples. finish() ends the path and adds its
// end-to-end metrics (medians over the kept samples).

/// A `dvfc serve --socket --workers 2` daemon driven as a closed loop over
/// two connections. A unit is 8 passes of 64 requests.
class ServePath {
 public:
  ServePath(const Options& options, bool traced);
  ~ServePath();
  ServePath(const ServePath&) = delete;
  ServePath& operator=(const ServePath&) = delete;

  /// Compiles the hot set once (untimed) and keeps each reply as the
  /// byte-exact baseline later replies are compared with.
  void warm(RunResult& result);
  /// Returns the unit's timed seconds.
  double unit(RunResult& result, bool measured);
  /// Checks that no stray reply is pending, scrapes the daemon's metrics
  /// and stops it.
  void finish(RunResult& result);

  [[nodiscard]] double daemon_rss_mib() const;

  struct Impl;
  [[nodiscard]] const Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Streamed replay of v2 trace files with LRU, PLRU and 2 shards, and v2
/// writes. A unit is one round: the four passes over every trace.
class ReplayPath {
 public:
  /// `full`: the extended kernel suite's traces plus the synthetic one;
  /// otherwise the synthetic trace alone.
  ReplayPath(const Options& options, bool full);
  ~ReplayPath();
  ReplayPath(const ReplayPath&) = delete;
  ReplayPath& operator=(const ReplayPath&) = delete;

  double unit(RunResult& result, bool measured);
  /// Only the streamed LRU pass, for the traced mode's overhead figure.
  double lru_unit(RunResult& result);
  void finish(RunResult& result);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// Injection campaigns over the verification suite at two threads with a
/// journal. A unit is one round: one campaign per kernel.
class CampaignPath {
 public:
  explicit CampaignPath(const Options& options);
  ~CampaignPath();
  CampaignPath(const CampaignPath&) = delete;
  CampaignPath& operator=(const CampaignPath&) = delete;

  double unit(RunResult& result, bool measured);
  /// Re-runs the last round at one thread and compares tallies.
  void finish(RunResult& result);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// One untraced run of `options.workload`: the campaign and replay paths
/// are measured, plus the serve path as load for serve-mix. Adds all
/// end-to-end metrics.
void run_workload(const Options& options, RunResult& result);

/// One traced run: the tracing overhead on the workload's own path, then
/// all three probes.
void run_traced(const Options& options, RunResult& result);

/// Per-layer probes. They time calls into each layer's public functions
/// from the benchmark's own code, on inputs that do not depend on the
/// workload, so every traced run prints the full per-layer list.
void probe_serve_layers(const Options& options, RunResult& result);
void probe_replay_layers(const Options& options, RunResult& result);
void probe_campaign_layers(const Options& options, RunResult& result);

/// Tracing overhead in percent: the median time of `unit` with obs on over
/// its median with obs off, minus 1. Units alternate off/on for
/// `options.seconds` (at least six) and the first two are dropped. `unit`
/// runs a fixed amount of work and returns its timed seconds.
double overhead_pct(const Options& options, const std::function<double()>& unit);

/// overhead_pct of in-process Engine::handle_line over fresh and repeated
/// sources.
double serve_trace_overhead_pct(const Options& options, RunResult& result);

}  // namespace dvfbench
