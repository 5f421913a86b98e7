// The serve-mix model corpus: DSL sources generated from a seed, covering
// all five access-pattern families, together with the facts the generator
// wrote into them (FIT, time, sizes, streaming parameters) so responses can
// be checked against values the benchmark computes itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dvfbench {

/// The access-pattern families, in the order the DSL documents them.
enum class Family { kStream = 0, kRandom, kTemplate, kReuse, kTiled };
inline constexpr int kFamilies = 5;
[[nodiscard]] const char* family_name(Family family);

struct MachineFacts {
  std::string name;
  double fit = 0.0;  ///< FIT per Mbit
  std::uint32_t line_bytes = 0;
};

struct StructureFacts {
  std::string name;
  double size_bytes = 0.0;
  Family family = Family::kStream;
  /// For stream-only structures: the parameters of Eqs. 3-4.
  std::uint32_t element_bytes = 0;
  std::uint64_t elements = 0;
  std::uint64_t stride = 0;
  std::uint64_t repeat = 0;
};

struct ModelSource {
  std::string source;
  std::string model_name;
  bool generated = false;  ///< false for the hand-written models/*.aspen
  double time_s = 0.0;     ///< generated models only
  std::vector<MachineFacts> machines;
  std::vector<StructureFacts> structures;
  Family primary = Family::kStream;
};

/// Model number `index` of the corpus for `seed`. `index` also names the
/// model, so distinct indices give distinct sources and distinct programs.
/// The primary family cycles with the index (one fifth each); every model
/// also carries one stream-only structure for the closed-form check.
[[nodiscard]] ModelSource generate_model(std::uint64_t seed, std::uint64_t index);

/// Expected main-memory accesses of one streaming phase, Eqs. 3-4 of the
/// paper, computed from its parameters.
[[nodiscard]] double streaming_closed_form(std::uint32_t element_bytes,
                                           std::uint64_t elements,
                                           std::uint64_t stride_elements,
                                           std::uint32_t line_bytes);

/// N_error of Eq. 1: FIT (per 1e9 hours per Mbit) x T x S_d.
[[nodiscard]] double expected_n_error(double fit, double time_s,
                                      double size_bytes);

}  // namespace dvfbench
