// The trace-replay path: replay from v2 files on disk (page cache) and
// trace writing.
//
// Set-up records the traces, moves their structures to fixed addresses (so
// every run writes and replays the same files) and writes each as a v2
// file: for the replay workload the extended kernel suite (CG 10.1 M
// references, MG 3.4 M, the rest smaller) plus a seeded, miss-heavy
// synthetic trace; for the other workloads the synthetic trace alone. One
// unit is a round of four passes over every trace, in this order: streamed
// LRU replay, streamed bit-PLRU replay, streamed LRU replay on two set
// shards (checked against the serial pass, not timed), and a v2 write of
// the decoded records. Each timed pass's rate is records over the pass's
// summed time.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "checks.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/cachesim/sharded_replay.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"
#include "synthetic.hpp"
#include "workloads.hpp"

namespace dvfbench {

namespace {

/// The simulated LLC: 8-way, 2048 sets of 64-byte lines (1 MiB).
constexpr std::uint32_t kAssoc = 8;
constexpr std::uint32_t kSets = 2048;
constexpr std::uint32_t kLine = 64;
constexpr std::size_t kSyntheticRecords = 2'000'000;

dvf::CacheConfig llc() { return dvf::CacheConfig("bench-llc", kAssoc, kSets, kLine); }

struct TraceFileInfo {
  std::string name;
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t probes = 0;  ///< line probes, counted by the benchmark
  std::size_t structures = 0;
  bool synthetic = false;
};

/// Everything set-up produces.
struct Traces {
  std::vector<TraceFileInfo> files;
  SyntheticTrace synthetic;
  std::vector<HitMiss> synthetic_lru;  ///< the reference LRU's counts
};

Traces record_traces(const Options& options, bool full) {
  Traces traces;
  for (auto& kernel : dvf::kernels::make_extended_suite()) {
    if (!full) {
      break;
    }
    dvf::TraceBuffer buffer;
    kernel->run_buffered(buffer);
    // The buffer is this function's own; its records are rebased in place
    // rather than copied (CG's take 240 MB).
    auto& records = const_cast<std::vector<dvf::MemoryRecord>&>(buffer.records());
    const std::vector<dvf::DataStructureInfo> structures =
        rebase_trace(kernel->registry(), records);
    TraceFileInfo info;
    info.name = kernel->name();
    info.path = options.workdir + "/" + info.name + ".dvft";
    info.records = records.size();
    info.probes = line_probes(records, kLine);
    info.structures = structures.size();
    dvf::write_trace_file(info.path, registry_of(structures), records);
    traces.files.push_back(info);
  }
  traces.synthetic = make_synthetic_trace(options.seed, kSyntheticRecords);
  TraceFileInfo info;
  info.name = "synthetic";
  info.path = options.workdir + "/synthetic.dvft";
  info.records = traces.synthetic.records.size();
  info.probes = line_probes(traces.synthetic.records, kLine);
  info.structures = traces.synthetic.structures.size();
  info.synthetic = true;
  dvf::write_trace_file(info.path, registry_of(traces.synthetic.structures),
                        traces.synthetic.records);
  traces.files.push_back(info);
  traces.synthetic_lru =
      reference_lru(traces.synthetic.records, info.structures, kAssoc, kSets, kLine);
  return traces;
}

/// Decodes a whole trace file into `out`.
void decode_all(const std::string& path, std::vector<dvf::MemoryRecord>& out,
                std::vector<dvf::DataStructureInfo>& structures) {
  dvf::TraceReader reader(path);
  structures = reader.structures();
  out.clear();
  out.reserve(reader.total_records());
  while (!reader.done()) {
    const auto chunk = reader.next_chunk();
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
}

template <typename Sim>
std::vector<dvf::CacheStats> per_structure(const Sim& sim, std::size_t count) {
  std::vector<dvf::CacheStats> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(sim.stats(static_cast<dvf::DsId>(i)));
  }
  return out;
}

/// One streamed serial replay of `file`; returns seconds and the stats.
double replay_serial(const TraceFileInfo& file, dvf::ReplacementPolicy policy,
                     std::vector<dvf::CacheStats>& stats, dvf::CacheStats& total) {
  const double t0 = now_s();
  dvf::TraceReader reader(file.path);
  dvf::CacheSimulator sim(llc(), policy);
  sim.reserve_structures(reader.structures().size());
  while (!reader.done()) {
    sim.replay(reader.next_chunk());
  }
  sim.flush();
  const double seconds = now_s() - t0;
  stats = per_structure(sim, file.structures);
  total = sim.total_stats();
  return seconds;
}

double replay_sharded(const TraceFileInfo& file, std::vector<dvf::CacheStats>& stats,
                      dvf::CacheStats& total) {
  const double t0 = now_s();
  dvf::TraceReader reader(file.path);
  dvf::ShardedReplayer sim(llc(), 2, dvf::ReplacementPolicy::kLru);
  sim.reserve_structures(reader.structures().size());
  sim.replay_stream(reader);
  sim.flush();
  const double seconds = now_s() - t0;
  stats = per_structure(sim, file.structures);
  total = sim.total_stats();
  return seconds;
}

void check(RunResult& result, const std::string& where, const std::string& why) {
  if (!why.empty()) {
    result.fail(where + ": " + why);
  }
}

}  // namespace

struct ReplayPath::Impl {
  Options options;
  Traces traces;
  std::uint64_t total_records = 0;
  std::string out_path;
  std::vector<dvf::MemoryRecord> records;  ///< reused by the write pass
  std::vector<double> lru_rate, plru_rate, write_rate;
  int rounds = 0;
};

ReplayPath::ReplayPath(const Options& options, bool full)
    : impl_(std::make_unique<Impl>()) {
  Impl& r = *impl_;
  r.options = options;
  r.traces = record_traces(options, full);
  r.out_path = options.workdir + "/rewrite.dvft";
  for (const TraceFileInfo& f : r.traces.files) {
    r.total_records += f.records;
  }
}

ReplayPath::~ReplayPath() {
  std::filesystem::remove(impl_->out_path);
  for (const TraceFileInfo& f : impl_->traces.files) {
    std::filesystem::remove(f.path);
  }
}

double ReplayPath::unit(RunResult& result, bool measured) {
  Impl& r = *impl_;
  double lru_s = 0.0, plru_s = 0.0, write_s = 0.0;
  for (const TraceFileInfo& f : r.traces.files) {
    std::vector<dvf::CacheStats> serial, plru, sharded;
    dvf::CacheStats total;
    lru_s += replay_serial(f, dvf::ReplacementPolicy::kLru, serial, total);
    check(result, f.name + " lru", check_conservation(total, f.probes));
    if (f.synthetic) {
      check(result, "synthetic lru", check_hit_miss(r.traces.synthetic_lru, serial));
    }
    plru_s += replay_serial(f, dvf::ReplacementPolicy::kPlru, plru, total);
    check(result, f.name + " plru", check_conservation(total, f.probes));
    // Checked, not timed: a 2-thread pass from file, with a fork-join per
    // 64Ki-record chunk, did not repeat between runs on a host whose
    // hypervisor steals CPU (see the README); its rate is a traced figure.
    (void)replay_sharded(f, sharded, total);
    check(result, f.name + " shard2", check_conservation(total, f.probes));
    check(result, f.name + " shard2", check_same_stats(serial, sharded));
  }
  std::vector<dvf::DataStructureInfo> structures;
  for (const TraceFileInfo& f : r.traces.files) {
    decode_all(f.path, r.records, structures);
    if (f.synthetic) {
      check(result, "synthetic decode",
            check_same_records(r.traces.synthetic.records, r.records));
    }
    const dvf::DataStructureRegistry registry = registry_of(structures);
    const double t0 = now_s();
    dvf::write_trace_file(r.out_path, registry, r.records);
    write_s += now_s() - t0;
    if (f.synthetic && r.rounds == 0) {
      std::vector<dvf::MemoryRecord> again;
      decode_all(r.out_path, again, structures);
      check(result, "synthetic rewrite",
            check_same_records(r.traces.synthetic.records, again));
    }
  }
  ++r.rounds;
  result.attempted += 4 * r.traces.files.size();
  if (measured) {
    const double mrec = static_cast<double>(r.total_records) / 1e6;
    r.lru_rate.push_back(mrec / lru_s);
    r.plru_rate.push_back(mrec / plru_s);
    r.write_rate.push_back(mrec / write_s);
  }
  return lru_s + plru_s + write_s;
}

double ReplayPath::lru_unit(RunResult& result) {
  double seconds = 0.0;
  for (const TraceFileInfo& f : impl_->traces.files) {
    std::vector<dvf::CacheStats> stats;
    dvf::CacheStats total;
    seconds += replay_serial(f, dvf::ReplacementPolicy::kLru, stats, total);
    check(result, f.name, check_conservation(total, f.probes));
  }
  result.attempted += impl_->traces.files.size();
  return seconds;
}

void ReplayPath::finish(RunResult& result) {
  const Impl& r = *impl_;
  result.add("replay_lru_mrec_s", median(r.lru_rate), "Mrec/s");
  result.add("replay_plru_mrec_s", median(r.plru_rate), "Mrec/s");
  result.add("trace_write_mrec_s", median(r.write_rate), "Mrec/s");
}

void probe_replay_layers(const Options& options, RunResult& result) {
  Traces traces = record_traces(options, true);
  constexpr int kReps = 3;
  double records_all = 0.0;
  double decode_s = 0.0, encode_s = 0.0, lru_s = 0.0, plru_s = 0.0,
         rrip_s = 0.0, shard_s = 0.0, stream_shard_s = 0.0;
  std::uint64_t lru_misses = 0;
  std::uint64_t lru_accesses = 0;
  std::vector<dvf::MemoryRecord> records;
  for (const TraceFileInfo& f : traces.files) {
    const double records_f = static_cast<double>(f.records);
    records_all += records_f;
    result.add("trace.v2_bytes_per_record." + f.name,
               static_cast<double>(std::filesystem::file_size(f.path)) / records_f,
               "B/rec");
    std::vector<double> dec, enc, lru, plru, rrip, shard, stream_shard;
    std::vector<dvf::DataStructureInfo> structures;
    for (int rep = 0; rep < kReps; ++rep) {
      // next_chunk() alone is timed; appending to the vector is not.
      dvf::TraceReader reader(f.path);
      structures = reader.structures();
      records.clear();
      records.reserve(reader.total_records());
      double t = 0.0;
      while (!reader.done()) {
        const double t0 = now_s();
        const auto chunk = reader.next_chunk();
        t += now_s() - t0;
        records.insert(records.end(), chunk.begin(), chunk.end());
      }
      dec.push_back(t);
    }
    for (int rep = 0; rep < kReps; ++rep) {
      std::ostringstream out(std::ios::binary);
      const double t0 = now_s();
      dvf::write_trace(out, structures, records);
      enc.push_back(now_s() - t0);
    }
    std::vector<dvf::CacheStats> serial;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const auto policy : {dvf::ReplacementPolicy::kLru,
                                dvf::ReplacementPolicy::kPlru,
                                dvf::ReplacementPolicy::kRrip}) {
        dvf::CacheSimulator sim(llc(), policy);
        sim.reserve_structures(structures.size());
        const double t0 = now_s();
        sim.replay(records);
        sim.flush();
        const double t = now_s() - t0;
        check(result, f.name + " in memory",
              check_conservation(sim.total_stats(), f.probes));
        if (policy == dvf::ReplacementPolicy::kLru) {
          lru.push_back(t);
          if (rep == 0) {
            lru_misses += sim.total_stats().misses;
            lru_accesses += sim.total_stats().accesses;
            serial = per_structure(sim, f.structures);
          }
        } else {
          (policy == dvf::ReplacementPolicy::kPlru ? plru : rrip).push_back(t);
        }
      }
      dvf::ShardedReplayer sharded(llc(), 2, dvf::ReplacementPolicy::kLru);
      sharded.reserve_structures(structures.size());
      const double t0 = now_s();
      sharded.replay(records);
      sharded.flush();
      shard.push_back(now_s() - t0);
      check(result, f.name + " in memory shard2",
            check_same_stats(serial, per_structure(sharded, f.structures)));
    }
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<dvf::CacheStats> from_file;
      dvf::CacheStats total;
      stream_shard.push_back(replay_sharded(f, from_file, total));
      check(result, f.name + " streamed shard2", check_same_stats(serial, from_file));
    }
    decode_s += median(dec);
    encode_s += median(enc);
    lru_s += median(lru);
    plru_s += median(plru);
    rrip_s += median(rrip);
    shard_s += median(shard);
    stream_shard_s += median(stream_shard);
    result.attempted += 1;
  }
  const double mrec = records_all / 1e6;
  result.add("trace.decode_mrec_s", mrec / decode_s, "Mrec/s");
  result.add("trace.encode_mrec_s", mrec / encode_s, "Mrec/s");
  result.add("cachesim.lru_mrec_s", mrec / lru_s, "Mrec/s");
  result.add("cachesim.plru_mrec_s", mrec / plru_s, "Mrec/s");
  result.add("cachesim.rrip_mrec_s", mrec / rrip_s, "Mrec/s");
  result.add("cachesim.miss_ratio",
             static_cast<double>(lru_misses) / static_cast<double>(lru_accesses),
             "ratio");
  result.add("sharded.shard2_mrec_s", mrec / shard_s, "Mrec/s");
  result.add("sharded.stream_shard2_mrec_s", mrec / stream_shard_s, "Mrec/s");
  for (const TraceFileInfo& f : traces.files) {
    std::filesystem::remove(f.path);
  }
}

}  // namespace dvfbench
