#include "checks.hpp"

#include <algorithm>
#include <cmath>

namespace dvfbench {

namespace {

bool close(double a, double b, double rel) {
  if (a == b) {
    return true;
  }
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double number_of(const JsonValue& object, std::string_view key, bool& ok) {
  const JsonValue* v = object.get(key);
  if (v == nullptr || !v->is_number()) {
    ok = false;
    return 0.0;
  }
  return v->number;
}

constexpr double kRel = 1e-9;

}  // namespace

std::string check_ok_response(const JsonValue& response, std::uint64_t id) {
  const JsonValue* ok = response.get("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool || !ok->boolean) {
    return "response is not ok";
  }
  const JsonValue* rid = response.get("id");
  if (rid == nullptr || !rid->is_number() ||
      rid->number != static_cast<double>(id)) {
    return "response id does not match request " + std::to_string(id);
  }
  const JsonValue* op = response.get("op");
  if (op == nullptr || !op->is_string() || op->text != "eval") {
    return "response to request " + std::to_string(id) + " is not an eval";
  }
  return {};
}

std::string check_model_results(const JsonValue& response,
                                const ModelSource& model) {
  const JsonValue* results = response.get("results");
  if (results == nullptr || results->kind != JsonValue::Kind::kArray ||
      results->items.empty()) {
    return model.model_name + ": no results";
  }
  if (model.generated && results->items.size() != model.machines.size()) {
    return model.model_name + ": " + std::to_string(results->items.size()) +
           " results for " + std::to_string(model.machines.size()) + " machines";
  }
  for (const JsonValue& result : results->items) {
    bool ok = true;
    const JsonValue* machine = result.get("machine");
    const JsonValue* structures = result.get("structures");
    const double total = number_of(result, "total", ok);
    const double time_s = number_of(result, "exec_time_s", ok);
    if (!ok || machine == nullptr || structures == nullptr ||
        structures->kind != JsonValue::Kind::kArray) {
      return model.model_name + ": malformed result";
    }
    const MachineFacts* mfacts = nullptr;
    for (const MachineFacts& m : model.machines) {
      if (m.name == machine->text) {
        mfacts = &m;
      }
    }
    if (model.generated) {
      if (mfacts == nullptr) {
        return model.model_name + ": unknown machine " + machine->text;
      }
      if (!close(time_s, model.time_s, 1e-12)) {
        return model.model_name + ": exec_time_s " + num(time_s) +
               " != generated time " + num(model.time_s);
      }
      if (structures->items.size() != model.structures.size()) {
        return model.model_name + ": structure count differs";
      }
    }
    double sum = 0.0;
    for (const JsonValue& s : structures->items) {
      const double n_ha = number_of(s, "n_ha", ok);
      const double n_error = number_of(s, "n_error", ok);
      const double dvf = number_of(s, "dvf", ok);
      const double size = number_of(s, "size_bytes", ok);
      const JsonValue* name = s.get("name");
      if (!ok || name == nullptr) {
        return model.model_name + ": malformed structure";
      }
      const std::string where = model.model_name + "/" + machine->text + "/" +
                                name->text;
      sum += dvf;
      if (!close(dvf, n_error * n_ha, kRel)) {
        return where + ": dvf " + num(dvf) + " != n_error x n_ha " +
               num(n_error * n_ha);
      }
      if (!model.generated) {
        continue;
      }
      const auto facts = std::find_if(
          model.structures.begin(), model.structures.end(),
          [&](const StructureFacts& f) { return f.name == name->text; });
      if (facts == model.structures.end()) {
        return where + ": structure the generator did not write";
      }
      if (size != facts->size_bytes) {
        return where + ": size_bytes " + num(size) + " != " +
               num(facts->size_bytes);
      }
      const double want_error = expected_n_error(mfacts->fit, model.time_s, size);
      if (!close(n_error, want_error, kRel)) {
        return where + ": n_error " + num(n_error) + " != FIT.T.S_d " +
               num(want_error);
      }
      if (facts->family == Family::kStream) {
        const double want = static_cast<double>(facts->repeat) *
                            streaming_closed_form(facts->element_bytes,
                                                  facts->elements, facts->stride,
                                                  mfacts->line_bytes);
        if (!close(n_ha, want, kRel)) {
          return where + ": streaming n_ha " + num(n_ha) +
                 " != Eqs. 3-4 closed form " + num(want);
        }
      }
    }
    if (!close(total, sum, kRel)) {
      return model.model_name + ": total " + num(total) +
             " != sum of structure DVFs " + num(sum);
    }
  }
  return {};
}

std::string check_same_results(std::string_view first_line,
                               std::string_view second_line) {
  const std::string_view a = raw_member(first_line, "results");
  const std::string_view b = raw_member(second_line, "results");
  if (a.empty() || b.empty()) {
    return "response without results";
  }
  if (a != b) {
    return "results differ between responses for one source";
  }
  return {};
}

std::vector<HitMiss> reference_lru(std::span<const dvf::MemoryRecord> records,
                                   std::size_t structures,
                                   std::uint32_t associativity,
                                   std::uint32_t sets, std::uint32_t line_bytes) {
  std::vector<HitMiss> out(structures);
  // Each set's tags sit in one row of `associativity` slots, most recent
  // first; `used` counts the filled slots of each row.
  std::vector<std::uint64_t> tags(static_cast<std::size_t>(sets) * associativity);
  std::vector<std::uint32_t> used(sets, 0);
  for (const dvf::MemoryRecord& r : records) {
    if (r.size == 0) {
      continue;
    }
    const std::uint64_t first = r.address / line_bytes;
    const std::uint64_t last = (r.address + r.size - 1) / line_bytes;
    for (std::uint64_t block = first; block <= last; ++block) {
      const std::size_t set = block % sets;
      std::uint64_t* row = tags.data() + set * associativity;
      std::uint32_t& filled = used[set];
      HitMiss& counts = out.at(r.ds);
      std::uint32_t way = std::find(row, row + filled, block) - row;
      if (way < filled) {
        ++counts.hits;
      } else {
        ++counts.misses;
        if (filled < associativity) {
          ++filled;
        }
        way = filled - 1;  // the least recent slot, or a new one
      }
      std::copy_backward(row, row + way, row + way + 1);
      row[0] = block;
    }
  }
  return out;
}

std::uint64_t line_probes(std::span<const dvf::MemoryRecord> records,
                          std::uint32_t line_bytes) {
  std::uint64_t probes = 0;
  for (const dvf::MemoryRecord& r : records) {
    if (r.size != 0) {
      probes += (r.address + r.size - 1) / line_bytes - r.address / line_bytes + 1;
    }
  }
  return probes;
}

std::string check_hit_miss(const std::vector<HitMiss>& expected,
                           const std::vector<dvf::CacheStats>& actual) {
  if (expected.size() != actual.size()) {
    return "structure count differs from the reference LRU";
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].hits != actual[i].hits ||
        expected[i].misses != actual[i].misses) {
      return "structure " + std::to_string(i) + ": simulator " +
             std::to_string(actual[i].hits) + " hits / " +
             std::to_string(actual[i].misses) + " misses, reference LRU " +
             std::to_string(expected[i].hits) + " / " +
             std::to_string(expected[i].misses);
    }
  }
  return {};
}

std::string check_conservation(const dvf::CacheStats& total,
                               std::uint64_t probes) {
  if (total.hits + total.misses != probes || total.accesses != probes) {
    return "hits " + std::to_string(total.hits) + " + misses " +
           std::to_string(total.misses) + " (accesses " +
           std::to_string(total.accesses) + ") != " + std::to_string(probes) +
           " line probes replayed";
  }
  return {};
}

std::string check_same_stats(const std::vector<dvf::CacheStats>& a,
                             const std::vector<dvf::CacheStats>& b) {
  if (a.size() != b.size()) {
    return "structure counts differ";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].accesses != b[i].accesses || a[i].hits != b[i].hits ||
        a[i].misses != b[i].misses || a[i].writebacks != b[i].writebacks) {
      return "structure " + std::to_string(i) +
             ": sharded stats differ from serial";
    }
  }
  return {};
}

std::string check_same_records(std::span<const dvf::MemoryRecord> expected,
                               std::span<const dvf::MemoryRecord> actual) {
  if (expected.size() != actual.size()) {
    return "decoded " + std::to_string(actual.size()) + " records, generated " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(expected[i] == actual[i])) {
      return "decoded record " + std::to_string(i) + " differs";
    }
  }
  return {};
}

std::string check_campaign_tallies(
    const std::vector<dvf::kernels::StructureInjectionStats>& stats,
    std::uint64_t trials) {
  for (const auto& s : stats) {
    const std::uint64_t classes = s.masked + s.sdc + s.due_exception +
                                  s.due_hang + s.due_invalid;
    if (s.trials != trials || classes != trials) {
      return s.structure + ": masked+sdc+due = " + std::to_string(classes) +
             ", trials = " + std::to_string(s.trials) + ", ran " +
             std::to_string(trials);
    }
  }
  return {};
}

std::string check_same_tallies(
    const std::vector<dvf::kernels::StructureInjectionStats>& a,
    const std::vector<dvf::kernels::StructureInjectionStats>& b) {
  if (a.size() != b.size()) {
    return "structure counts differ";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].structure != b[i].structure || a[i].trials != b[i].trials ||
        a[i].injected != b[i].injected || a[i].masked != b[i].masked ||
        a[i].sdc != b[i].sdc || a[i].due_exception != b[i].due_exception ||
        a[i].due_hang != b[i].due_hang || a[i].due_invalid != b[i].due_invalid) {
      return a[i].structure + ": tallies differ between thread counts";
    }
  }
  return {};
}

}  // namespace dvfbench
