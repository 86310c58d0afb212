#include "svc/json.hpp"

#include <cstdio>

#include "common/jsonio.hpp"

namespace gpuqos::svc {
namespace {

void write_value(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += v.flag ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      out += v.text;
      return;
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(v.text);
      out += '"';
      return;
    case JsonValue::Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out += ',';
        write_value(v.items[i], out);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < v.fields.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += json_escape(v.fields[i].first);
        out += "\":";
        write_value(v.fields[i].second, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind = Kind::kObject;
  return v;
}
JsonValue JsonValue::array() {
  JsonValue v;
  v.kind = Kind::kArray;
  return v;
}
JsonValue JsonValue::str(std::string s) {
  JsonValue v;
  v.kind = Kind::kString;
  v.text = std::move(s);
  return v;
}
JsonValue JsonValue::num_u64(std::uint64_t n) {
  JsonValue v;
  v.kind = Kind::kNumber;
  v.text = std::to_string(n);
  return v;
}
JsonValue JsonValue::num_f64(double d) {
  JsonValue v;
  v.kind = Kind::kNumber;
  // Max round-trip precision (json_double's 12 digits would lose bits).
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  v.text = buf;
  return v;
}
JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind = Kind::kBool;
  v.flag = b;
  return v;
}

JsonValue& JsonValue::add(std::string key, JsonValue v) {
  fields.emplace_back(std::move(key), std::move(v));
  return *this;
}
JsonValue& JsonValue::push(JsonValue v) {
  items.push_back(std::move(v));
  return *this;
}

std::string json_write(const JsonValue& v) {
  std::string out;
  write_value(v, out);
  return out;
}

}  // namespace gpuqos::svc
