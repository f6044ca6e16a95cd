// Request/response grammar of the placement service — schema "rap.serve.v1".
//
// The wire format is line-delimited JSON: one request object per line in,
// one response object per line out. Every response carries
// {"schema":"rap.serve.v1","ok":true|false} plus the request's "id" echoed
// verbatim when present. Failures are structured:
//   {"schema":"rap.serve.v1","ok":false,"id":...,
//    "error":{"code":"bad_request","message":"..."}}
// Stable error codes: bad_request, unknown_op, no_session, bad_scenario,
// resource_limit, deadline_exceeded, internal. "resource_limit" means the
// request asked for more than the server will allocate; the server itself
// stays healthy. No request raises it today — it is reserved for resource
// caps such as a connection limit.
//
// This header owns the JSON value model (parse + serialize) and the error
// vocabulary; src/serve/server.h owns dispatch. The parser is deliberately
// small (objects, arrays, strings, finite numbers, true/false/null; UTF-8
// passed through verbatim) — exactly the subset the grammar emits. Object
// keys are kept in a sorted map, so serialization is deterministic
// regardless of request key order.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rap::serve {

/// Schema tag stamped on every response line.
inline constexpr const char* kServeSchema = "rap.serve.v1";

/// Maximum container nesting the parser accepts. The grammar is at most a
/// few levels deep; the cap exists so a hostile `[[[[...` line a few
/// thousand brackets long becomes a parse error (-> bad_request) instead of
/// a stack overflow in the recursive-descent parser.
inline constexpr int kMaxJsonDepth = 96;

/// A parsed JSON document. Numbers are doubles (the grammar never needs
/// integers beyond 2^53); object keys sort lexicographically.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}  // NOLINT(*-explicit-*)
  JsonValue(bool value) : value_(value) {}        // NOLINT(*-explicit-*)
  JsonValue(double value) : value_(value) {}      // NOLINT(*-explicit-*)
  JsonValue(std::string value) : value_(std::move(value)) {}  // NOLINT(*-explicit-*)
  JsonValue(const char* value) : value_(std::string(value)) {}  // NOLINT(*-explicit-*)
  JsonValue(Array value) : value_(std::move(value)) {}    // NOLINT(*-explicit-*)
  JsonValue(Object value) : value_(std::move(value)) {}   // NOLINT(*-explicit-*)

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; throw std::invalid_argument naming the expected kind
  /// on mismatch (the server maps that to a bad_request reply).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected). Throws std::invalid_argument with a character offset
/// on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Compact, deterministic serialization. Doubles round-trip exactly
/// (shortest form via %.17g with an integer fast path); non-finite numbers
/// serialize as null (JSON has no literals for them).
[[nodiscard]] std::string to_json(const JsonValue& value);

/// A request failure with a stable machine-readable code. The server turns
/// any RequestError into a structured error reply; everything else escaping
/// a handler becomes code "internal".
class RequestError : public std::runtime_error {
 public:
  RequestError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// Field lookup in a request object; nullptr when absent.
[[nodiscard]] const JsonValue* find_field(const JsonValue::Object& object,
                                          std::string_view key);

/// Typed field extraction helpers used by the request layer. The require_*
/// forms throw RequestError{"bad_request"} when the field is missing or the
/// wrong kind; the get_* forms substitute a fallback when absent.
[[nodiscard]] double require_number(const JsonValue::Object& object,
                                    std::string_view key);
[[nodiscard]] const std::string& require_string(const JsonValue::Object& object,
                                                std::string_view key);
[[nodiscard]] double get_number(const JsonValue::Object& object,
                                std::string_view key, double fallback);
[[nodiscard]] std::string get_string(const JsonValue::Object& object,
                                     std::string_view key,
                                     std::string_view fallback);

}  // namespace rap::serve
