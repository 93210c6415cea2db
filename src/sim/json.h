// Minimal self-contained JSON document model and serializer.
//
// No external dependencies. Built for the metrics/bench-report pipeline,
// whose hard requirement is *determinism*: two identical seeded simulation
// runs must serialize to byte-identical documents. Hence:
//   - object keys keep insertion order (the writer never re-sorts, so a
//     deterministic program produces a deterministic document);
//   - numbers are formatted with std::to_chars (shortest round-trip form,
//     locale-independent);
//   - non-finite doubles serialize as null (JSON has no NaN/Inf).
#ifndef TLBSIM_SRC_SIM_JSON_H_
#define TLBSIM_SRC_SIM_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tlbsim {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Json(int v) : type_(Type::kInt), int_(v) {}                    // NOLINT
  Json(int64_t v) : type_(Type::kInt), int_(v) {}                // NOLINT
  Json(uint64_t v) : type_(Type::kUint), uint_(v) {}             // NOLINT
  Json(double v) : type_(Type::kDouble), double_(v) {}           // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}      // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : type_(Type::kString), string_(s) {}        // NOLINT

  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kUint || type_ == Type::kDouble;
  }

  // --- object access ---
  // Inserts a null member on first use (a null Json silently becomes an
  // object, so `doc["a"]["b"] = 1` works on a default-constructed value).
  Json& operator[](std::string_view key);
  // Lookup without insertion; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const { return object_; }

  // --- array access ---
  void Append(Json v);
  const std::vector<Json>& items() const { return array_; }
  size_t size() const;

  // --- scalar accessors (return the fallback on type mismatch) ---
  bool AsBool(bool fallback = false) const;
  int64_t AsInt(int64_t fallback = 0) const;
  uint64_t AsUint(uint64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
  const std::string& AsString() const { return string_; }

  // Structural equality; integral values compare across int/uint/double
  // representations when they denote the same number.
  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

  // Serializes the document. indent=0 emits the compact form; indent>0
  // pretty-prints with that many spaces per level. Output ends without a
  // trailing newline.
  std::string Dump(int indent = 0) const;

  // Appends the JSON string escape of `s` (without surrounding quotes).
  static void EscapeTo(std::string_view s, std::string* out);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_JSON_H_
