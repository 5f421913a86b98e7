// Correctness checks made apart from the program. Each returns an empty
// string when the check holds and a one-line explanation when it does not,
// so the benchmark's tests can corrupt one value and watch the check fail.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "corpus.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/trace/recorder.hpp"
#include "json.hpp"

namespace dvfbench {

// --- serve-mix ------------------------------------------------------------

/// The response is `ok`, answers an eval and carries request id `id`.
[[nodiscard]] std::string check_ok_response(const JsonValue& response,
                                            std::uint64_t id);

/// For every result of an eval response: dvf == n_error x n_ha, and for a
/// generated model also n_error == FIT.T.S_d with the generator's FIT, time
/// and sizes, and N_ha of the stream-only structure equal to Eqs. 3-4.
[[nodiscard]] std::string check_model_results(const JsonValue& response,
                                              const ModelSource& model);

/// Two responses for one source carry byte-identical `results`.
[[nodiscard]] std::string check_same_results(std::string_view first_line,
                                             std::string_view second_line);

// --- replay ---------------------------------------------------------------

/// Per-structure hits and misses.
struct HitMiss {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  friend bool operator==(const HitMiss&, const HitMiss&) = default;
};

/// A plain true-LRU, write-allocate set-associative cache: a row of tags
/// per set, most recent first. Written independently of CacheSimulator to
/// check it.
[[nodiscard]] std::vector<HitMiss> reference_lru(
    std::span<const dvf::MemoryRecord> records, std::size_t structures,
    std::uint32_t associativity, std::uint32_t sets, std::uint32_t line_bytes);

/// Line probes a record stream causes: one per cache line each non-empty
/// record covers.
[[nodiscard]] std::uint64_t line_probes(std::span<const dvf::MemoryRecord> records,
                                        std::uint32_t line_bytes);

[[nodiscard]] std::string check_hit_miss(const std::vector<HitMiss>& expected,
                                         const std::vector<dvf::CacheStats>& actual);

/// hits + misses == accesses == the line probes of the replayed records.
[[nodiscard]] std::string check_conservation(const dvf::CacheStats& total,
                                             std::uint64_t probes);

/// Per-structure stats equal field by field (sharded against serial).
[[nodiscard]] std::string check_same_stats(const std::vector<dvf::CacheStats>& a,
                                           const std::vector<dvf::CacheStats>& b);

[[nodiscard]] std::string check_same_records(
    std::span<const dvf::MemoryRecord> expected,
    std::span<const dvf::MemoryRecord> actual);

// --- campaign -------------------------------------------------------------

/// Every structure ran `trials` trials, each landing in exactly one class.
[[nodiscard]] std::string check_campaign_tallies(
    const std::vector<dvf::kernels::StructureInjectionStats>& stats,
    std::uint64_t trials);

/// Two campaigns' tallies are identical, structure by structure.
[[nodiscard]] std::string check_same_tallies(
    const std::vector<dvf::kernels::StructureInjectionStats>& a,
    const std::vector<dvf::kernels::StructureInjectionStats>& b);

}  // namespace dvfbench
