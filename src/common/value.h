// Value: the dynamic value type shared by the storage layer and the
// deterministic function runtime.
//
// Functions in Radical are WebAssembly blobs whose storage accesses move
// bytes; this reproduction models payloads as a small dynamic type (unit,
// int64, string, list-of-values), which is rich enough to express every
// function in the evaluation (timelines are lists of post keys, hotel
// availability is an integer, ...). Value is immutable once stored.

#ifndef RADICAL_SRC_COMMON_VALUE_H_
#define RADICAL_SRC_COMMON_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace radical {

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  // Unit (absent/none) value.
  Value() : rep_(std::monostate{}) {}
  Value(int64_t v) : rep_(v) {}                 // NOLINT(google-explicit-constructor)
  Value(std::string v) : rep_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : rep_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(ValueList v)                              // NOLINT(google-explicit-constructor)
      : rep_(std::make_shared<ValueList>(std::move(v))) {}

  bool is_unit() const { return std::holds_alternative<std::monostate>(rep_); }
  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }
  bool is_list() const { return std::holds_alternative<std::shared_ptr<ValueList>>(rep_); }

  // Accessors assert on the stored alternative.
  int64_t AsInt() const;
  const std::string& AsString() const;
  const ValueList& AsList() const;

  // Deep structural equality.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Rough size in bytes for cost accounting (payload size on the wire).
  size_t ApproxSizeBytes() const;

  // Human-readable rendering, e.g. `["post:3", 42]`.
  std::string ToString() const;

  // Deterministic 64-bit structural hash (used by functions that need a
  // stable digest, e.g. the pbkdf2-like login check).
  uint64_t StableHash() const;

 private:
  // Lists are shared_ptr so copying Values (pervasive in the interpreter) is
  // cheap; Values are logically immutable so sharing is safe.
  std::variant<std::monostate, int64_t, std::string, std::shared_ptr<ValueList>> rep_;
};

// Test printer: a failing EXPECT_EQ on values shows ToString(), not raw bytes.
void PrintTo(const Value& value, std::ostream* os);

}  // namespace radical

#endif  // RADICAL_SRC_COMMON_VALUE_H_
