// A run of one workload: every path is set up, then measured in cycles that
// interleave the paths round-robin, so slow drifts of the host reach all
// metrics alike. The first cycle is warm-up and is not kept.
#include <optional>

#include "dvf/obs/obs.hpp"
#include "workloads.hpp"

namespace dvfbench {

namespace {

/// Units per cycle of each path, by workload.
struct Shares {
  int serve = 1;
  int replay = 1;
  int campaign = 1;
};

Shares shares_of(const std::string& workload) {
  if (workload == "serve-mix") {
    return {2, 1, 2};
  }
  return {0, 1, 2};
}

}  // namespace

double overhead_pct(const Options& options, const std::function<double()>& unit) {
  std::vector<double> on;
  std::vector<double> off;
  const double begin = now_s();
  for (int i = 0; i < 6 || now_s() - begin < options.seconds; ++i) {
    dvf::obs::set_enabled(i % 2 == 1);
    const double seconds = unit();
    dvf::obs::set_enabled(false);
    dvf::obs::reset();
    if (i >= 2) {
      (i % 2 == 1 ? on : off).push_back(seconds);
    }
  }
  return 100.0 * (median(on) / median(off) - 1.0);
}

void run_workload(const Options& options, RunResult& result) {
  const Shares shares = shares_of(options.workload);
  CampaignPath campaign(options);
  ReplayPath replay(options, options.workload == "replay");
  std::optional<ServePath> serve;
  if (shares.serve > 0) {
    serve.emplace(options, /*traced=*/false);
  }
  result.add("setup_s", now_s() - options.start_s, "s");
  if (serve) {
    serve->warm(result);
  }

  const double begin = now_s();
  for (int cycle = 0; cycle < 3 || now_s() - begin < options.seconds; ++cycle) {
    const bool measured = cycle > 0;
    for (int i = 0; i < shares.serve; ++i) {
      serve->unit(result, measured);
    }
    for (int i = 0; i < shares.campaign; ++i) {
      campaign.unit(result, measured);
    }
    for (int i = 0; i < shares.replay; ++i) {
      replay.unit(result, measured);
    }
  }
  if (serve) {
    serve->finish(result);
  }
  campaign.finish(result);
  replay.finish(result);
  // The daemon's footprint for serve-mix, the benchmark process's (which
  // holds the replay and campaign state) for replay.
  result.add("peak_rss_mib", serve ? serve->daemon_rss_mib() : peak_rss_mib(),
             "MiB");
}

void run_traced(const Options& options, RunResult& result) {
  double overhead = 0.0;
  if (options.workload == "serve-mix") {
    overhead = serve_trace_overhead_pct(options, result);
  } else {
    ReplayPath replay(options, /*full=*/true);
    overhead = overhead_pct(options, [&] { return replay.lru_unit(result); });
  }
  result.add("obs.trace_overhead_pct", overhead, "%");

  for (auto* probe : {&probe_serve_layers, &probe_replay_layers,
                      &probe_campaign_layers}) {
    dvf::obs::set_enabled(true);
    probe(options, result);
    dvf::obs::set_enabled(false);
    dvf::obs::reset();
  }
}

}  // namespace dvfbench
