// The injection-campaign path: statistical fault injection over the
// verification suite at two threads, with the default hang budget and a
// journal file per kernel.
//
// Trial counts per structure are set per kernel so that each kernel costs
// about the same per round at one thread (per-trial cost spans three orders
// of magnitude, from VM to CG). Every round draws fresh trials: its
// campaign seed mixes the run's seed with the round number, so a run
// averages over many fault sites.
#include <filesystem>
#include <map>

#include "checks.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/obs/obs.hpp"
#include "workloads.hpp"

namespace dvfbench {

namespace {

/// Trials per structure, by kernel.
const std::map<std::string, std::uint64_t>& trials_per_structure() {
  static const std::map<std::string, std::uint64_t> table = {
      {"VM", 2000}, {"FT", 600}, {"MC", 24}, {"MG", 12}, {"NB", 8}, {"CG", 1}};
  return table;
}

std::uint64_t trials_for(const std::string& kernel) {
  const auto it = trials_per_structure().find(kernel);
  return it == trials_per_structure().end() ? 1 : it->second;
}

struct Kernel {
  std::unique_ptr<dvf::kernels::KernelCase> kernel;
  std::uint64_t trials = 0;      ///< per structure
  std::uint64_t structures = 0;  ///< in the kernel's model
};

std::vector<Kernel> load_suite() {
  std::vector<Kernel> suite;
  for (auto& k : dvf::kernels::make_verification_suite()) {
    Kernel entry;
    entry.trials = trials_for(k->name());
    entry.structures = k->model_spec().structures.size();
    // The golden run and reference count are cached on the instance.
    (void)k->clean_signature();
    (void)k->total_references();
    entry.kernel = std::move(k);
    suite.push_back(std::move(entry));
  }
  return suite;
}

std::uint64_t round_seed(std::uint64_t seed, int round) {
  Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(round));
  return rng.next();
}

/// One campaign over `k`; returns seconds, fills `stats`.
double run_one(Kernel& k, std::uint64_t seed, unsigned threads,
               const std::string& journal,
               std::vector<dvf::kernels::StructureInjectionStats>& stats) {
  dvf::kernels::CampaignConfig config;
  config.trials_per_structure = k.trials;
  config.seed = seed;
  config.threads = threads;
  config.journal_path = journal;
  const double t0 = now_s();
  stats = dvf::kernels::run_injection_campaign(*k.kernel, config);
  return now_s() - t0;
}

/// One round over the whole suite. Returns seconds; counts trials.
double run_round(std::vector<Kernel>& suite, std::uint64_t seed, unsigned threads,
                 const Options& options, bool journal, RunResult& result,
                 std::uint64_t& trials,
                 std::vector<std::vector<dvf::kernels::StructureInjectionStats>>* out) {
  double seconds = 0.0;
  for (Kernel& k : suite) {
    std::vector<dvf::kernels::StructureInjectionStats> stats;
    const std::string path =
        journal ? options.workdir + "/journal_" + k.kernel->name() + ".txt" : "";
    seconds += run_one(k, seed, threads, path, stats);
    if (std::string why = check_campaign_tallies(stats, k.trials); !why.empty()) {
      result.fail(k.kernel->name() + ": " + why);
    }
    trials += k.trials * k.structures;
    if (out != nullptr) {
      out->push_back(std::move(stats));
    }
  }
  return seconds;
}

}  // namespace

struct CampaignPath::Impl {
  Options options;
  std::vector<Kernel> suite;
  int rounds = 0;
  std::uint64_t last_seed = 0;
  std::vector<std::vector<dvf::kernels::StructureInjectionStats>> last;
  std::vector<double> rate;
};

CampaignPath::CampaignPath(const Options& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  impl_->suite = load_suite();
}

CampaignPath::~CampaignPath() {
  for (const Kernel& k : impl_->suite) {
    std::filesystem::remove(impl_->options.workdir + "/journal_" +
                            k.kernel->name() + ".txt");
  }
}

double CampaignPath::unit(RunResult& result, bool measured) {
  Impl& c = *impl_;
  c.last_seed = round_seed(c.options.seed, c.rounds++);
  c.last.clear();
  std::uint64_t trials = 0;
  const double seconds = run_round(c.suite, c.last_seed, 2, c.options, true,
                                   result, trials, &c.last);
  result.attempted += trials;
  if (measured) {
    c.rate.push_back(static_cast<double>(trials) / seconds);
  }
  return seconds;
}

void CampaignPath::finish(RunResult& result) {
  Impl& c = *impl_;
  // The last round again at one thread, untimed: tallies must match bit
  // for bit.
  std::uint64_t trials = 0;
  std::vector<std::vector<dvf::kernels::StructureInjectionStats>> serial;
  run_round(c.suite, c.last_seed, 1, c.options, false, result, trials, &serial);
  for (std::size_t i = 0; i < c.suite.size(); ++i) {
    if (std::string why = check_same_tallies(c.last[i], serial[i]); !why.empty()) {
      result.fail(c.suite[i].kernel->name() + ": " + why);
    }
  }
  result.add("campaign_trials_per_s", median(c.rate), "trials/s");
}

void probe_campaign_layers(const Options& options, RunResult& result) {
  std::vector<Kernel> suite = load_suite();
  constexpr int kReps = 3;
  for (Kernel& k : suite) {
    const std::string name = k.kernel->name();
    std::vector<double> golden, trial;
    for (int rep = 0; rep < kReps; ++rep) {
      golden.push_back(k.kernel->run_timed() * 1e3);
      std::vector<dvf::kernels::StructureInjectionStats> stats;
      const double s = run_one(k, round_seed(options.seed, rep), 1, "", stats);
      trial.push_back(s * 1e6 / static_cast<double>(k.trials * k.structures));
      result.attempted += k.trials * k.structures;
    }
    result.add("kernels.golden_run_ms." + name, median(golden), "ms");
    result.add("campaign.trial_us." + name, median(trial), "us");
  }
  // Whole-suite rounds: 1 thread, 2 threads, 2 threads with the journal.
  std::vector<double> one, two, journaled;
  std::uint64_t trials = 0;  // over all the rounds below
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed = round_seed(options.seed, 100 + rep);
    one.push_back(run_round(suite, seed, 1, options, false, result, trials, nullptr));
    two.push_back(run_round(suite, seed, 2, options, false, result, trials, nullptr));
    journaled.push_back(
        run_round(suite, seed, 2, options, true, result, trials, nullptr));
  }
  result.attempted += trials;
  const double trials_per_round = static_cast<double>(trials) / (3 * kReps);
  result.add("campaign.scaling_2t", median(one) / median(two), "ratio");
  result.add("campaign.journal_us_per_trial",
             (median(journaled) - median(two)) * 1e6 / trials_per_round,
             "us");
  for (const Kernel& k : suite) {
    std::filesystem::remove(options.workdir + "/journal_" + k.kernel->name() + ".txt");
  }
}

}  // namespace dvfbench
