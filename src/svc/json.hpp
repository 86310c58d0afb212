// Minimal JSON value model + compact writer. Builders assemble a document in
// memory (objects keep insertion order, numbers keep their rendered token so
// 64-bit integers and max-precision doubles print exactly) and json_write
// renders it on one line. Emit-only: nothing in the project parses JSON back.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gpuqos::svc {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool flag = false;             // kBool
  std::string text;              // kString: raw bytes; kNumber: rendered token
  std::vector<JsonValue> items;  // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject

  [[nodiscard]] static JsonValue object();
  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue str(std::string s);
  [[nodiscard]] static JsonValue num_u64(std::uint64_t v);
  [[nodiscard]] static JsonValue num_f64(double v);
  [[nodiscard]] static JsonValue boolean(bool v);
  JsonValue& add(std::string key, JsonValue v);  // object append, returns *this
  JsonValue& push(JsonValue v);                  // array append, returns *this
};

/// Compact single-line serialization (object/array member order preserved).
[[nodiscard]] std::string json_write(const JsonValue& v);

}  // namespace gpuqos::svc
