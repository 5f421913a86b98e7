#include "synthetic.hpp"

#include <stdexcept>
#include <string>

#include "stats.hpp"

namespace dvfbench {

SyntheticTrace make_synthetic_trace(std::uint64_t seed, std::size_t records) {
  SyntheticTrace trace;
  constexpr std::uint64_t kMiB = 1 << 20;
  const std::uint64_t sizes[] = {8 * kMiB, 16 * kMiB, 32 * kMiB, 64 * kMiB};
  std::uint64_t base = 0x10000000;
  for (int i = 0; i < 4; ++i) {
    dvf::DataStructureInfo info;
    info.name = "syn" + std::to_string(i);
    info.base_address = base;
    info.size_bytes = sizes[i];
    info.element_bytes = 8;
    trace.structures.push_back(info);
    base += sizes[i] + 4 * kMiB;
  }
  Rng rng(seed ^ 0x5EEDF00Dull);
  trace.records.reserve(records);
  std::uint32_t ds = 0;
  std::uint64_t element = 0;
  while (trace.records.size() < records) {
    const dvf::DataStructureInfo& s = trace.structures[ds];
    const std::uint64_t elements = s.size_bytes / 8;
    if (rng.below(4) != 0) {
      ds = static_cast<std::uint32_t>(rng.below(4));
      element = rng.below(trace.structures[ds].size_bytes / 8);
    } else {
      element = (element + 1) % elements;
    }
    const dvf::DataStructureInfo& target = trace.structures[ds];
    trace.records.push_back({target.base_address + element * 8, 8, ds,
                             rng.below(5) == 0});
  }
  return trace;
}

std::vector<dvf::DataStructureInfo> rebase_trace(
    const dvf::DataStructureRegistry& registry,
    std::vector<dvf::MemoryRecord>& records) {
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kGap = 1 << 20;
  std::vector<dvf::DataStructureInfo> structures(registry.begin(), registry.end());
  std::vector<std::uint64_t> old_base;
  std::uint64_t base = 0x10000000;
  for (dvf::DataStructureInfo& s : structures) {
    old_base.push_back(s.base_address);
    s.base_address = base;
    base = (base + s.size_bytes + kGap + kPage - 1) / kPage * kPage;
  }
  for (dvf::MemoryRecord& r : records) {
    if (r.ds >= structures.size() ||
        r.address - old_base[r.ds] >= structures[r.ds].size_bytes) {
      throw std::runtime_error("trace record at " + std::to_string(r.address) +
                               " lies outside its structure");
    }
    r.address = r.address - old_base[r.ds] + structures[r.ds].base_address;
  }
  return structures;
}

dvf::DataStructureRegistry registry_of(
    const std::vector<dvf::DataStructureInfo>& structures) {
  dvf::DataStructureRegistry registry;
  for (const dvf::DataStructureInfo& s : structures) {
    registry.register_structure(
        s.name, reinterpret_cast<const void*>(s.base_address), s.size_bytes,
        s.element_bytes);
  }
  return registry;
}

}  // namespace dvfbench
