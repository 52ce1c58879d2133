#ifndef GEF_SERVE_JSON_H_
#define GEF_SERVE_JSON_H_

// Minimal JSON for the serving wire format: a strict recursive-descent
// parser producing a tagged value tree, and escape/number helpers for
// building responses. Dependency-free by repo policy; request bodies are
// external input, so every malformed byte surfaces as a ParseError
// Status (mapped to HTTP 400 by the handlers), never a crash.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace gef {
namespace serve {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;
};

/// Parses `text` (entire buffer must be one JSON value). `max_depth`
/// bounds nesting so a deeply nested body cannot blow the stack.
StatusOr<Json> ParseJson(const std::string& text, int max_depth = 64);

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscapeString(const std::string& text);

/// Appends the `%.pg` rendering of a double with the smallest p in
/// 1..16 that round-trips through strtod, else `%.17g` (so 100 prints
/// as `1e+02` and 0.0001 as `0.0001`); NaN/Inf (not expressible in
/// JSON) render as null. Response bytes are pinned to this definition
/// (DESIGN.md §3.14); computing it costs two to_chars calls and one
/// strtod check for nearly every value.
void AppendJsonNumber(std::string* out, double value);

/// AppendJsonNumber into a fresh string.
std::string JsonNumberText(double value);

/// Appends / renders `[v0,v1,...]`.
void AppendJsonNumberArray(std::string* out,
                           const std::vector<double>& values);
std::string JsonNumberArray(const std::vector<double>& values);

}  // namespace serve
}  // namespace gef

#endif  // GEF_SERVE_JSON_H_
