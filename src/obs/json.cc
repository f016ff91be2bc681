#include "src/obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "src/common/check.h"

namespace ctobs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object_items) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing characters");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    throw std::runtime_error("json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = 0;
    while (literal[len] != '\0') {
      ++len;
    }
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipSpace();
    char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        JsonValue value;
        value.kind = JsonValue::Kind::kString;
        value.string_value = ParseString();
        return value;
      }
      case 't': {
        if (!ConsumeLiteral("true")) Fail("bad literal");
        JsonValue value;
        value.kind = JsonValue::Kind::kBool;
        value.bool_value = true;
        return value;
      }
      case 'f': {
        if (!ConsumeLiteral("false")) Fail("bad literal");
        JsonValue value;
        value.kind = JsonValue::Kind::kBool;
        return value;
      }
      case 'n': {
        if (!ConsumeLiteral("null")) Fail("bad literal");
        return JsonValue{};
      }
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipSpace();
      std::string key = ParseString();
      SkipSpace();
      Expect(':');
      value.object_items.emplace_back(std::move(key), ParseValue());
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value;
      }
      Fail("expected ',' or '}'");
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array_items.push_back(ParseValue());
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value;
      }
      Fail("expected ',' or ']'");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad \\u escape");
            }
          }
          // The writer only emits \u00xx control escapes; anything wider is
          // decoded as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          Fail("bad escape");
      }
    }
  }

  JsonValue ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected value");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number_value = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue ParseJson(const std::string& text) { return Parser(text).Parse(); }

int64_t JsonInteger(const JsonValue& value, std::string_view field, int64_t min, int64_t max) {
  const double number = value.number_value;
  if (value.is_number() && number == std::floor(number) && number >= static_cast<double>(min) &&
      number <= static_cast<double>(max)) {
    return static_cast<int64_t>(number);
  }
  char shown[32] = "not a number";
  if (value.is_number()) {
    std::snprintf(shown, sizeof(shown), "%.17g", number);
  }
  throw std::runtime_error(std::string(field) + " is " + shown + ", not an integer in [" +
                           std::to_string(min) + ", " + std::to_string(max) + "]");
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    if (has_items_.back()) {
      out_ += ',';
    }
    has_items_.back() = true;
  }
}

void JsonWriter::Quote(std::string_view text) {
  out_ += '"';
  for (char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out_ += buffer;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_ += bracket;
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  // Misnested: nothing open, or a Key() still waiting for its value.
  CT_CHECK(!has_items_.empty() && !after_key_);
  has_items_.pop_back();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  Quote(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  Quote(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  Separate();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  Separate();
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

bool WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream out(path);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace ctobs
