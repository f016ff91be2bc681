// The repository's one JSON writer and its minimal JSON reader.
//
// JsonWriter builds the compact text of every JSON file the repository
// writes: reports, metrics snapshots, Chrome traces, dossiers, ctstat
// summaries and bench results. WriteTextFile is the one checked file write.
// The recursive-descent reader loads what the writer produced — metrics
// snapshots for ctstat, dossiers, and traces for tests. Objects preserve key
// order (vector of pairs) so diagnostics can mirror the file. Parse errors
// throw std::runtime_error with an offset.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ctobs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  std::vector<std::pair<std::string, JsonValue>> object_items;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // First value under `key`, or null when absent / not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Throws std::runtime_error on malformed input or trailing garbage.
JsonValue ParseJson(const std::string& text);

// The largest integer up to which a JSON number (a double) holds every
// integer exactly: 2^53 - 1.
inline constexpr int64_t kJsonMaxInteger = (int64_t{1} << 53) - 1;

// Reads an integer field: `value` must be a number with no fractional part
// in [min, max] (`max` no larger than kJsonMaxInteger). Otherwise throws
// std::runtime_error naming `field`, so a negative count, a fraction or a
// value past 2^53 fails loudly instead of wrapping or truncating in a cast.
int64_t JsonInteger(const JsonValue& value, std::string_view field, int64_t min = 0,
                    int64_t max = kJsonMaxInteger);

// Compact JSON text, built front to back. The writer places the commas and
// colons; the caller nests the calls: every object member is Key() then one
// value, array elements are bare values. Strings escape `"` and `\` with a
// backslash, newline and tab as \n and \t, and every other byte below 0x20
// as \u00XX; all other bytes pass through unchanged.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(std::integral auto value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Double(double value);               // printf "%g"
  JsonWriter& Fixed(double value, int decimals);  // printf "%.<decimals>f"
  JsonWriter& Bool(bool value);

  const std::string& str() const { return out_; }

 private:
  // Emits the comma that precedes every member or element but the first.
  void Separate();
  void Quote(std::string_view text);
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  std::string out_;
  std::vector<bool> has_items_;  // one entry per open object or array
  bool after_key_ = false;
};

// Writes `text` to `path`, replacing the file: open, write, close, then test
// the stream, so a path that cannot be opened and a write that fails at
// flush (a full disk) both return false.
bool WriteTextFile(const std::string& path, std::string_view text);

}  // namespace ctobs

#endif  // SRC_OBS_JSON_H_
