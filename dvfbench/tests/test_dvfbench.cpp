// Tests of the benchmark's own helpers and correctness checks. Every check
// is shown to pass on the program's real output and to fail once a single
// value in that output is corrupted.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "checks.hpp"
#include "corpus.hpp"
#include "dvf/cachesim/sharded_replay.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/serve/engine.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"
#include "json.hpp"
#include "stats.hpp"
#include "synthetic.hpp"

namespace dvfbench {
namespace {

// --- stats and result line ---------------------------------------------

TEST(Stats, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, QuantileInterpolatesBetweenRanks) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_EQ(quantile(v, 0.0), 10.0);
  EXPECT_EQ(quantile(v, 1.0), 50.0);
  EXPECT_EQ(quantile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 49.6);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 0.25), 1.25);
}

TEST(ResultLine, PrintsEveryDigitAndParsesBack) {
  RunResult r;
  r.attempted = 7;
  r.failed = 1;
  r.add("latency_ms", 1.0 / 3.0, "ms");
  r.add("setup_s", 0.8127, "s");
  const std::string line = result_line(r);
  const auto parsed = parse_json(line);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->members.size(), 4u);
  EXPECT_TRUE(parsed->get("correct")->boolean);
  EXPECT_EQ(parsed->get("attempted")->number, 7.0);
  EXPECT_EQ(parsed->get("failed")->number, 1.0);
  const JsonValue* latency = parsed->get("metrics")->get("latency_ms");
  EXPECT_EQ(latency->get("value")->number, 1.0 / 3.0);  // round trip exact
  EXPECT_EQ(latency->get("unit")->text, "ms");
}

TEST(ResultLine, FailedCheckOrNonFiniteValueIsIncorrect) {
  RunResult r;
  r.attempted = 1;
  r.add("x", std::nan(""), "s");
  EXPECT_FALSE(parse_json(result_line(r))->get("correct")->boolean);
  RunResult failed;
  failed.attempted = 1;
  failed.fail("one check");
  EXPECT_FALSE(parse_json(result_line(failed))->get("correct")->boolean);
  EXPECT_EQ(failed.problems.size(), 1u);
}

TEST(Json, RawMemberFindsTopLevelValueOnly) {
  const std::string line =
      R"({"id":1,"nested":{"results":[9]},"results":[{"a":"x,]"}],"z":2})";
  EXPECT_EQ(raw_member(line, "results"), R"([{"a":"x,]"}])");
  EXPECT_EQ(raw_member(line, "z"), "2");
  EXPECT_EQ(raw_member(line, "missing"), "");
  const std::string text = "a \"quoted\"\nline\\";
  EXPECT_EQ(parse_json(json_quote(text))->text, text);
  EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
}

// --- serve-mix checks ---------------------------------------------------

/// A real daemon reply for `model`, from the in-process engine.
std::string engine_reply(const ModelSource& model, std::uint64_t id) {
  dvf::serve::Engine engine;
  return engine.handle_line("{\"id\":" + std::to_string(id) +
                            ",\"op\":\"eval\",\"source\":" +
                            json_quote(model.source) + "}");
}

/// The first structure named `name` in the first result.
JsonValue& structure(JsonValue& reply, const std::string& name) {
  for (auto& [key, value] : reply.members) {
    if (key != "results") {
      continue;
    }
    for (auto& [skey, structures] : value.items.front().members) {
      if (skey != "structures") {
        continue;
      }
      for (JsonValue& s : structures.items) {
        if (s.get("name")->text == name) {
          return s;
        }
      }
    }
  }
  throw std::runtime_error("no structure " + name);
}

void scale(JsonValue& object, const std::string& key, double factor) {
  for (auto& [k, v] : object.members) {
    if (k == key) {
      v.number *= factor;
    }
  }
}

TEST(ServeChecks, PassOnRealRepliesForEveryFamily) {
  for (std::uint64_t i = 0; i < 40; ++i) {
    const ModelSource model = generate_model(7, i);
    const auto reply = parse_json(engine_reply(model, i + 1));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(check_ok_response(*reply, i + 1), "") << model.source;
    EXPECT_EQ(check_model_results(*reply, model), "") << model.source;
  }
}

TEST(ServeChecks, FailWhenOneValueIsCorrupted) {
  const ModelSource model = generate_model(3, 5);
  const std::string line = engine_reply(model, 9);
  const JsonValue good = *parse_json(line);
  EXPECT_NE(check_ok_response(good, 10), "");

  const auto fails_with = [&model](const JsonValue& reply, const char* what) {
    return check_model_results(reply, model).find(what) != std::string::npos;
  };
  EXPECT_EQ(check_model_results(good, model), "");

  JsonValue bad = good;
  scale(structure(bad, "s0"), "n_ha", 1.0 + 1e-6);
  EXPECT_TRUE(fails_with(bad, "n_error x n_ha"));

  bad = good;
  JsonValue& s0 = structure(bad, "s0");
  scale(s0, "n_ha", 2.0);
  scale(s0, "dvf", 2.0);
  EXPECT_TRUE(fails_with(bad, "closed form"));

  bad = good;
  JsonValue& p1 = structure(bad, "p1");
  scale(p1, "n_error", 1.5);
  scale(p1, "dvf", 1.5);
  EXPECT_TRUE(fails_with(bad, "FIT.T.S_d"));

  bad = good;
  scale(structure(bad, "p1"), "size_bytes", 2.0);
  EXPECT_TRUE(fails_with(bad, "size_bytes"));

  bad = good;
  for (auto& [k, v] : bad.members) {
    if (k == "results") {
      scale(v.items.front(), "total", 1.0 + 1e-6);
    }
  }
  EXPECT_TRUE(fails_with(bad, "sum of structure DVFs"));

  EXPECT_EQ(check_same_results(line, line), "");
  std::string other = line;
  const std::size_t at = other.find("\"n_ha\":") + 7;
  other[at] = other[at] == '1' ? '2' : '1';
  EXPECT_NE(check_same_results(line, other), "");
}

TEST(Corpus, StreamingClosedFormCoversAllThreeCases) {
  // S < CL: every line of the footprint, ceil(800 / 64).
  EXPECT_EQ(streaming_closed_form(8, 100, 1, 64), 13.0);
  // CL <= E, S == E: every line once, ceil(6400 / 32).
  EXPECT_EQ(streaming_closed_form(64, 100, 1, 32), 200.0);
  // CL <= E < S: ceil(D / S) references of floor(E/CL) + p lines,
  // p = (40 - 1) % 32 / 32.
  EXPECT_DOUBLE_EQ(streaming_closed_form(40, 100, 2, 32), 50.0 * (1.0 + 7.0 / 32.0));
  // E < CL <= S: one line or two when straddling, p = 7 / 32.
  EXPECT_DOUBLE_EQ(streaming_closed_form(8, 100, 4, 32), 25.0 * (1.0 + 7.0 / 32.0));
  // 1 FIT/Mbit over 3600 s on 125000 bytes (1 Mbit): 1e-9 errors.
  EXPECT_DOUBLE_EQ(expected_n_error(1.0, 3600.0, 125000.0), 1e-9);
}

TEST(Corpus, ModelsCompileAndCycleFamilies) {
  std::set<std::string> sources;
  for (std::uint64_t i = 0; i < 25; ++i) {
    const ModelSource model = generate_model(42, i);
    EXPECT_EQ(static_cast<int>(model.primary), static_cast<int>(i % kFamilies));
    EXPECT_NO_THROW((void)dvf::dsl::compile(model.source)) << model.source;
    sources.insert(model.source);
  }
  EXPECT_EQ(sources.size(), 25u);
  EXPECT_EQ(generate_model(42, 3).source, generate_model(42, 3).source);
  EXPECT_NE(generate_model(42, 3).source, generate_model(43, 3).source);
}

// --- replay checks --------------------------------------------------------

std::vector<dvf::CacheStats> stats_of(const dvf::CacheSimulator& sim,
                                      std::size_t n) {
  std::vector<dvf::CacheStats> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(sim.stats(static_cast<dvf::DsId>(i)));
  }
  return out;
}

TEST(ReplayChecks, RebasedTraceDoesNotDependOnHeapAddresses) {
  // The same reference stream recorded at two sets of heap addresses.
  const auto recorded = [](std::uint64_t a, std::uint64_t b,
                           dvf::DataStructureRegistry& registry) {
    registry.register_structure("a", reinterpret_cast<const void*>(a), 4096, 8);
    registry.register_structure("b", reinterpret_cast<const void*>(b), 8192, 8);
    std::vector<dvf::MemoryRecord> records;
    for (std::uint64_t i = 0; i < 512; ++i) {
      records.push_back({a + 8 * i, 8, 0, false});
      records.push_back({b + 16 * i, 8, 1, i % 3 == 0});
    }
    return records;
  };
  dvf::DataStructureRegistry first;
  dvf::DataStructureRegistry second;
  std::vector<dvf::MemoryRecord> one = recorded(0x7f0000001010, 0x55aa00002000, first);
  std::vector<dvf::MemoryRecord> two = recorded(0x7e1234560010, 0x561100000040, second);
  const std::vector<dvf::DataStructureInfo> s1 = rebase_trace(first, one);
  const std::vector<dvf::DataStructureInfo> s2 = rebase_trace(second, two);
  EXPECT_EQ(one, two);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[0].base_address, s2[0].base_address);
  EXPECT_EQ(s1[1].base_address, s2[1].base_address);
  EXPECT_EQ(s1[0].base_address % 4096, 0u);
  EXPECT_GE(s1[1].base_address, s1[0].base_address + 4096 + (1u << 20));
  EXPECT_EQ(one[1].address, s1[1].base_address);
  EXPECT_EQ(one[3].address, s1[1].base_address + 16);
  std::ostringstream v2_one(std::ios::binary);
  std::ostringstream v2_two(std::ios::binary);
  dvf::write_trace(v2_one, s1, one);
  dvf::write_trace(v2_two, s2, two);
  EXPECT_EQ(v2_one.str(), v2_two.str());

  // A record outside its structure is refused, not silently moved.
  dvf::DataStructureRegistry third;
  std::vector<dvf::MemoryRecord> bad = recorded(0x10000, 0x40000, third);
  bad[5].address += 8192;
  EXPECT_THROW((void)rebase_trace(third, bad), std::runtime_error);
}

TEST(ReplayChecks, ReferenceLruAgreesAndCorruptionFails) {
  const SyntheticTrace trace = make_synthetic_trace(5, 60000);
  // A small cache so the trace both hits and misses.
  const dvf::CacheConfig cache("t", 4, 64, 64);
  dvf::CacheSimulator sim(cache);
  sim.reserve_structures(4);
  sim.replay(trace.records);
  sim.flush();
  const std::vector<dvf::CacheStats> actual = stats_of(sim, 4);
  const std::vector<HitMiss> expected = reference_lru(trace.records, 4, 4, 64, 64);
  EXPECT_EQ(check_hit_miss(expected, actual), "");
  EXPECT_GT(expected[0].hits, 0u);
  EXPECT_GT(expected[0].misses, 0u);
  std::vector<HitMiss> corrupt = expected;
  corrupt[2].misses += 1;
  EXPECT_NE(check_hit_miss(corrupt, actual), "");

  const std::uint64_t probes = line_probes(trace.records, 64);
  EXPECT_EQ(probes, trace.records.size());  // one line per record
  EXPECT_EQ(check_conservation(sim.total_stats(), probes), "");
  EXPECT_NE(check_conservation(sim.total_stats(), probes + 1), "");
  dvf::CacheStats total = sim.total_stats();
  total.hits -= 1;
  EXPECT_NE(check_conservation(total, probes), "");

  dvf::ShardedReplayer sharded(cache, 2);
  sharded.reserve_structures(4);
  sharded.replay(trace.records);
  sharded.flush();
  std::vector<dvf::CacheStats> shard_stats;
  for (dvf::DsId i = 0; i < 4; ++i) {
    shard_stats.push_back(sharded.stats(i));
  }
  EXPECT_EQ(check_same_stats(actual, shard_stats), "");
  shard_stats[1].writebacks += 1;
  EXPECT_NE(check_same_stats(actual, shard_stats), "");
}

TEST(ReplayChecks, LineProbesCountStraddlingRecords) {
  const std::vector<dvf::MemoryRecord> records = {
      {60, 8, 0, false}, {64, 8, 0, false}, {0, 0, 0, false}};
  EXPECT_EQ(line_probes(records, 64), 3u);
}

TEST(ReplayChecks, DecodedRecordsMatchAndCorruptionFails) {
  const SyntheticTrace trace = make_synthetic_trace(9, 100000);
  std::stringstream wire(std::ios::in | std::ios::out | std::ios::binary);
  dvf::write_trace(wire, trace.structures, trace.records);
  dvf::TraceReader reader(wire);
  std::vector<dvf::MemoryRecord> decoded;
  while (!reader.done()) {
    const auto chunk = reader.next_chunk();
    decoded.insert(decoded.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(check_same_records(trace.records, decoded), "");
  decoded[777].is_write = !decoded[777].is_write;
  EXPECT_NE(check_same_records(trace.records, decoded), "");
  decoded.pop_back();
  EXPECT_NE(check_same_records(trace.records, decoded), "");
}

// --- campaign checks ------------------------------------------------------

TEST(CampaignChecks, TalliesConserveAndMatchAcrossThreads) {
  auto suite = dvf::kernels::make_verification_suite();
  auto& vm = *suite.front();
  ASSERT_EQ(vm.name(), "VM");
  dvf::kernels::CampaignConfig config;
  config.trials_per_structure = 60;
  config.seed = 11;
  config.threads = 1;
  const auto serial = dvf::kernels::run_injection_campaign(vm, config);
  config.threads = 2;
  const auto parallel = dvf::kernels::run_injection_campaign(vm, config);
  EXPECT_EQ(check_campaign_tallies(serial, 60), "");
  EXPECT_NE(check_campaign_tallies(serial, 61), "");
  EXPECT_EQ(check_same_tallies(serial, parallel), "");

  auto corrupt = serial;
  corrupt[0].sdc += 1;
  EXPECT_NE(check_campaign_tallies(corrupt, 60), "");
  EXPECT_NE(check_same_tallies(serial, corrupt), "");
  corrupt = serial;
  corrupt.back().masked -= 1;
  corrupt.back().due_hang += 1;
  EXPECT_EQ(check_campaign_tallies(corrupt, 60), "");  // still conserved
  EXPECT_NE(check_same_tallies(serial, corrupt), "");  // but not identical
}

}  // namespace
}  // namespace dvfbench
