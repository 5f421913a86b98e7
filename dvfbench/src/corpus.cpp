#include "corpus.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "stats.hpp"

namespace dvfbench {

namespace {

/// Prints `value` the way the source carries it and returns the double the
/// DSL will read back from that text, so facts match the source exactly.
double emit_number(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out += buf;
  return std::strtod(buf, nullptr);
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.below(N)];
}

/// Appends one structure of `family` named `name` and returns its facts.
StructureFacts add_structure(std::string& out, Rng& rng, Family family,
                             const std::string& name) {
  StructureFacts facts;
  facts.name = name;
  facts.family = family;
  std::uint64_t elements = 0;
  std::uint32_t element_bytes = 8;
  std::string pattern;
  switch (family) {
    case Family::kStream: {
      const std::uint32_t sizes[] = {4, 8, 12, 16, 24, 48, 64, 96, 128, 200};
      const std::uint64_t strides[] = {1, 1, 2, 3, 4, 8, 16};
      element_bytes = pick(rng, sizes);
      elements = rng.between(64, 200000);
      facts.stride = pick(rng, strides);
      facts.repeat = rng.between(1, 4);
      pattern = "stream { stride " + u64(facts.stride) + "; repeat " +
                u64(facts.repeat) + "; }";
      break;
    }
    case Family::kRandom: {
      const std::uint32_t sizes[] = {8, 16, 32};
      const char* ratios[] = {"0.25", "0.5", "1.0"};
      element_bytes = pick(rng, sizes);
      elements = rng.between(1000, 50000);
      const std::uint64_t visits = rng.between(10, 500);
      pattern = "random { visits " + u64(visits) + "; iterations " +
                u64(rng.between(100, 5000)) + "; ratio " + pick(rng, ratios) +
                "; }";
      break;
    }
    case Family::kTemplate: {
      elements = rng.between(4000, 40000);
      const std::uint64_t a = rng.between(1, 200);
      const std::uint64_t b = rng.between(1, 200);
      const std::uint64_t count = rng.between(200, 1500);
      pattern = "template { start (1, " + u64(1 + a) + ", " + u64(1 + b) +
                "); step 1; count " + u64(count) + "; repeat " +
                u64(rng.between(1, 4)) + "; ratio 0.5; }";
      break;
    }
    case Family::kReuse: {
      elements = rng.between(500, 20000);
      pattern = "reuse { rounds " + u64(rng.between(1, 50)) +
                "; other_bytes " + u64(rng.between(1024, 1 << 20)) + "; }";
      break;
    }
    case Family::kTiled: {
      const std::uint64_t orders[] = {32, 64, 96, 128};
      const std::uint64_t tiles[] = {4, 8, 16, 32};
      const std::uint64_t n = pick(rng, orders);
      std::uint64_t t = pick(rng, tiles);
      while (n % t != 0) {
        t /= 2;
      }
      elements = n * n;
      pattern = "tiled { tile (" + u64(t) + ", " + u64(t) + "); rows " +
                u64(n) + "; passes " + u64(rng.between(1, 4)) +
                "; intra_reuse " + u64(rng.between(1, 8)) + "; ratio 0.5; }";
      break;
    }
  }
  facts.element_bytes = element_bytes;
  facts.elements = elements;
  facts.size_bytes = static_cast<double>(elements) * element_bytes;
  out += "  data " + name + " { elements " + u64(elements) +
         "; element_size " + u64(element_bytes) + "; }\n";
  out += "  pattern " + name + " " + pattern + "\n";
  return facts;
}

}  // namespace

const char* family_name(Family family) {
  switch (family) {
    case Family::kStream: return "stream";
    case Family::kRandom: return "random";
    case Family::kTemplate: return "template";
    case Family::kReuse: return "reuse";
    case Family::kTiled: return "tiled";
  }
  return "stream";
}

ModelSource generate_model(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed * 0x100000001B3ull + index);
  ModelSource model;
  model.generated = true;
  model.model_name = "G" + u64(index);
  model.primary = static_cast<Family>(index % kFamilies);
  std::string& out = model.source;
  out = "// dvfbench corpus seed " + u64(seed) + " model " + u64(index) + "\n";

  const std::uint32_t lines[] = {32, 64, 128};
  const std::uint64_t assocs[] = {4, 8, 16};
  const std::uint64_t sets[] = {64, 256, 1024, 4096};
  const std::size_t machine_count = 1 + rng.below(2);
  for (std::size_t m = 0; m < machine_count; ++m) {
    MachineFacts facts;
    facts.name = "m" + u64(m);
    facts.line_bytes = pick(rng, lines);
    out += "machine \"" + facts.name + "\" {\n  cache { associativity " +
           u64(pick(rng, assocs)) + "; sets " + u64(pick(rng, sets)) +
           "; line " + u64(facts.line_bytes) + "; }\n  memory { fit ";
    facts.fit = emit_number(out, 100.0 + static_cast<double>(rng.below(990000)) / 100.0);
    out += "; }\n}\n";
    model.machines.push_back(facts);
  }

  out += "model \"" + model.model_name + "\" {\n  time ";
  model.time_s = emit_number(
      out, std::pow(10.0, -4.0 + 5.0 * static_cast<double>(rng.below(10000)) / 10000.0));
  out += ";\n";
  model.structures.push_back(add_structure(out, rng, Family::kStream, "s0"));
  model.structures.push_back(add_structure(out, rng, model.primary, "p1"));
  if (rng.below(2) == 0) {
    model.structures.push_back(add_structure(
        out, rng, static_cast<Family>(rng.below(kFamilies)), "x2"));
  }
  out += "}\n";
  return model;
}

double streaming_closed_form(std::uint32_t element_bytes,
                             std::uint64_t elements,
                             std::uint64_t stride_elements,
                             std::uint32_t line_bytes) {
  const double e = element_bytes;
  const double cl = line_bytes;
  const double d = static_cast<double>(elements) * e;    // footprint D
  const double s = static_cast<double>(stride_elements) * e;  // stride S
  // Eq. 3: chance that an element starting at a uniform byte offset of a
  // line spills into the next line.
  const double p = static_cast<double>((element_bytes - 1) % line_bytes) / cl;
  // Eq. 4: lines per element.
  const double a_e = std::floor(e / cl) + p;
  const double refs = std::ceil(d / s);    // elements the sweep touches
  const double lines = std::ceil(d / cl);  // lines of the footprint
  if (cl <= e) {
    return s > e ? refs * a_e : lines;
  }
  if (cl <= s) {
    return refs * (1.0 + p);
  }
  return lines;
}

double expected_n_error(double fit, double time_s, double size_bytes) {
  const double hours = time_s / 3600.0;
  const double megabits = size_bytes * 8.0 / 1e6;
  return fit * hours / 1e9 * megabits;
}

}  // namespace dvfbench
