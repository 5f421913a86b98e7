// A minimal JSON reader for the benchmark's own checks. It parses the
// daemon's response lines and the Chrome trace the daemon writes, so the
// checks never rely on the program's own decoder.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dvfbench {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< string value
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Member lookup (last occurrence wins, as in the serve protocol);
  /// nullptr when absent or when this is not an object.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
};

/// Parses one JSON document; nullopt on any syntax error or trailing bytes.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

/// JSON string literal for `text` (quotes included).
[[nodiscard]] std::string json_quote(std::string_view text);

/// The raw bytes of the value of top-level member `key` in a JSON object
/// line, located by a structural scan; empty when absent. Used to compare
/// the `results` arrays of two responses byte for byte.
[[nodiscard]] std::string_view raw_member(std::string_view object,
                                          std::string_view key);

}  // namespace dvfbench
