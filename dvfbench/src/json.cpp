#include "json.hpp"

#include <cstdio>
#include <cstdlib>

namespace dvfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool parse_document(JsonValue& out) {
    if (!value(out, 0)) {
      return false;
    }
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > 64) {
      return false;
    }
    skip_ws();
    if (pos_ >= s_.size()) {
      return false;
    }
    const char c = s_[pos_];
    if (c == '{') {
      return object(out, depth);
    }
    if (c == '[') {
      return array(out, depth);
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.text);
    }
    if (c == 't' && literal("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (c == 'f' && literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      return true;
    }
    if (c == 'n' && literal("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return number(out);
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return false;
    }
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    out.kind = JsonValue::Kind::kNumber;
    return end == token.c_str() + token.size();
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) {
        return false;
      }
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            return false;
          }
          const unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16));
          pos_ += 4;
          // The benchmark only meets ASCII escapes; others keep one byte.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!value(item, depth + 1)) {
        return false;
      }
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= s_.size()) {
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        return false;
      }
      std::string key;
      if (!string(key)) {
        return false;
      }
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return false;
      }
      ++pos_;
      JsonValue member;
      if (!value(member, depth + 1)) {
        return false;
      }
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= s_.size()) {
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::get(std::string_view key) const {
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) {
      found = &value;
    }
  }
  return found;
}

std::optional<JsonValue> parse_json(std::string_view text) {
  JsonValue out;
  Parser parser(text);
  if (!parser.parse_document(out)) {
    return std::nullopt;
  }
  return out;
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string_view raw_member(std::string_view object, std::string_view key) {
  // Walk the top level of the object, skipping nested values and strings.
  int depth = 0;
  bool in_string = false;
  std::size_t key_start = std::string_view::npos;
  for (std::size_t i = 0; i < object.size(); ++i) {
    const char c = object[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 1 && key_start != std::string_view::npos) {
          const std::string_view name =
              object.substr(key_start + 1, i - key_start - 1);
          std::size_t j = i + 1;
          while (j < object.size() && object[j] == ' ') {
            ++j;
          }
          if (name == key && j < object.size() && object[j] == ':') {
            // Value runs to the next top-level ',' or the closing '}'.
            std::size_t k = j + 1;
            int d = 0;
            bool s = false;
            for (; k < object.size(); ++k) {
              const char v = object[k];
              if (s) {
                if (v == '\\') {
                  ++k;
                } else if (v == '"') {
                  s = false;
                }
              } else if (v == '"') {
                s = true;
              } else if (v == '{' || v == '[') {
                ++d;
              } else if (v == '}' || v == ']') {
                if (d == 0) {
                  break;
                }
                --d;
              } else if (v == ',' && d == 0) {
                break;
              }
            }
            return object.substr(j + 1, k - j - 1);
          }
        }
        key_start = std::string_view::npos;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      // A key starts right after '{' or ',' at depth 1.
      std::size_t b = i;
      while (b > 0 && object[b - 1] == ' ') {
        --b;
      }
      key_start = (depth == 1 && b > 0 &&
                   (object[b - 1] == '{' || object[b - 1] == ','))
                      ? i
                      : std::string_view::npos;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return {};
}

}  // namespace dvfbench
