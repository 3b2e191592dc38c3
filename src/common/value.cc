#include "src/common/value.h"

#include <cassert>
#include <sstream>

namespace radical {

namespace {

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashBytes(const std::string& s) {
  // FNV-1a.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

int64_t Value::AsInt() const {
  assert(is_int());
  return std::get<int64_t>(rep_);
}

const std::string& Value::AsString() const {
  assert(is_string());
  return std::get<std::string>(rep_);
}

const ValueList& Value::AsList() const {
  assert(is_list());
  return *std::get<std::shared_ptr<ValueList>>(rep_);
}

bool Value::operator==(const Value& other) const {
  if (rep_.index() != other.rep_.index()) {
    return false;
  }
  if (is_unit()) {
    return true;
  }
  if (is_int()) {
    return AsInt() == other.AsInt();
  }
  if (is_string()) {
    return AsString() == other.AsString();
  }
  const ValueList& a = AsList();
  const ValueList& b = other.AsList();
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

size_t Value::ApproxSizeBytes() const {
  if (is_unit()) {
    return 1;
  }
  if (is_int()) {
    return 8;
  }
  if (is_string()) {
    return AsString().size();
  }
  size_t total = 8;
  for (const Value& v : AsList()) {
    total += v.ApproxSizeBytes();
  }
  return total;
}

std::string Value::ToString() const {
  if (is_unit()) {
    return "unit";
  }
  if (is_int()) {
    return std::to_string(AsInt());
  }
  if (is_string()) {
    return "\"" + AsString() + "\"";
  }
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Value& v : AsList()) {
    if (!first) {
      os << ", ";
    }
    first = false;
    os << v.ToString();
  }
  os << "]";
  return os.str();
}

void PrintTo(const Value& value, std::ostream* os) { *os << value.ToString(); }

uint64_t Value::StableHash() const {
  if (is_unit()) {
    return 0x5bd1e995;
  }
  if (is_int()) {
    return MixHash(1, static_cast<uint64_t>(AsInt()));
  }
  if (is_string()) {
    return MixHash(2, HashBytes(AsString()));
  }
  uint64_t h = 3;
  for (const Value& v : AsList()) {
    h = MixHash(h, v.StableHash());
  }
  return h;
}

}  // namespace radical
