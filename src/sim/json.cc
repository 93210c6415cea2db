#include "src/sim/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace tlbsim {

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
  }
  assert(type_ == Type::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      return v;
    }
  }
  object_.emplace_back(std::string(key), Json());
  return object_.back().second;
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

void Json::Append(Json v) {
  if (type_ == Type::kNull) {
    type_ = Type::kArray;
  }
  assert(type_ == Type::kArray);
  array_.push_back(std::move(v));
}

size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return array_.size();
    case Type::kObject:
      return object_.size();
    default:
      return 0;
  }
}

bool Json::AsBool(bool fallback) const { return type_ == Type::kBool ? bool_ : fallback; }

int64_t Json::AsInt(int64_t fallback) const {
  switch (type_) {
    case Type::kInt:
      return int_;
    case Type::kUint:
      return static_cast<int64_t>(uint_);
    case Type::kDouble:
      return static_cast<int64_t>(double_);
    default:
      return fallback;
  }
}

uint64_t Json::AsUint(uint64_t fallback) const {
  switch (type_) {
    case Type::kInt:
      return int_ >= 0 ? static_cast<uint64_t>(int_) : fallback;
    case Type::kUint:
      return uint_;
    case Type::kDouble:
      return double_ >= 0 ? static_cast<uint64_t>(double_) : fallback;
    default:
      return fallback;
  }
}

double Json::AsDouble(double fallback) const {
  switch (type_) {
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    case Type::kDouble:
      return double_;
    default:
      return fallback;
  }
}

bool Json::operator==(const Json& other) const {
  if (is_number() && other.is_number()) {
    // Integral values stored as int vs uint vs double must still compare
    // equal when they denote the same number.
    if (type_ == Type::kDouble || other.type_ == Type::kDouble) {
      return AsDouble() == other.AsDouble();
    }
    if (type_ == Type::kInt && int_ < 0) {
      return other.type_ == Type::kInt && other.int_ == int_;
    }
    if (other.type_ == Type::kInt && other.int_ < 0) {
      return false;
    }
    return AsUint() == other.AsUint();
  }
  if (type_ != other.type_) {
    return false;
  }
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
    default:
      return false;  // numbers handled above
  }
}

void Json::EscapeTo(std::string_view s, std::string* out) {
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
}

namespace {

void AppendNumber(std::string* out, int64_t v) {
  char buf[32];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p);
}

void AppendNumber(std::string* out, uint64_t v) {
  char buf[32];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p);
}

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p);
}

void Newline(std::string* out, int indent, int depth) {
  if (indent > 0) {
    *out += '\n';
    out->append(static_cast<size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      AppendNumber(out, int_);
      break;
    case Type::kUint:
      AppendNumber(out, uint_);
      break;
    case Type::kDouble:
      AppendNumber(out, double_);
      break;
    case Type::kString:
      *out += '"';
      EscapeTo(string_, out);
      *out += '"';
      break;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      *out += '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) {
          *out += ',';
        }
        first = false;
        Newline(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) {
          *out += ',';
        }
        first = false;
        Newline(out, indent, depth + 1);
        *out += '"';
        EscapeTo(k, out);
        *out += "\":";
        if (indent > 0) {
          *out += ' ';
        }
        v.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

}  // namespace tlbsim
