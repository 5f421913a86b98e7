// The replay workload's seeded synthetic trace: miss-heavy, so the cache
// simulator's replacement path does the work, where the kernel traces are
// dominated by hits on sequential sweeps.
#pragma once

#include <cstdint>
#include <vector>

#include "dvf/trace/recorder.hpp"
#include "dvf/trace/registry.hpp"

namespace dvfbench {

struct SyntheticTrace {
  std::vector<dvf::DataStructureInfo> structures;
  std::vector<dvf::MemoryRecord> records;
};

/// `records` references over four structures of 8 to 64 MiB: three in four
/// land on a uniformly random 8-byte element, the rest continue a short
/// sequential run; one in five is a write. Every record covers one line.
[[nodiscard]] SyntheticTrace make_synthetic_trace(std::uint64_t seed,
                                                  std::size_t records);

/// Moves a recorded trace's structures to fixed bases and rewrites every
/// record's address by its structure's offset. Recorded addresses come from
/// the heap and differ from process to process, which changes the v2 file
/// (its deltas cross structures) and the cache sets a replay touches. The
/// new bases follow registry order, page-aligned, with a 1 MiB gap between
/// structures, so references still jump between distant structures as they
/// do on the heap. Returns the rebased structures; throws when a record
/// falls outside its structure.
[[nodiscard]] std::vector<dvf::DataStructureInfo> rebase_trace(
    const dvf::DataStructureRegistry& registry,
    std::vector<dvf::MemoryRecord>& records);

/// A registry holding `structures` at their recorded base addresses, for
/// the trace writer (which takes a registry). The addresses are only
/// stored, never dereferenced.
[[nodiscard]] dvf::DataStructureRegistry registry_of(
    const std::vector<dvf::DataStructureInfo>& structures);

}  // namespace dvfbench
