#include "support/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace swapram::support::json {

namespace {

const Value kNull{};
const Array kEmptyArray{};
const Object kEmptyObject{};

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        panic("json: asBool on non-bool");
    return bool_;
}

std::int64_t
Value::asInt() const
{
    if (kind_ == Kind::Int)
        return int_;
    if (kind_ == Kind::Double) {
        // Exactly the doubles in [-2^63, 2^63) with no fraction; the
        // cast of anything else would truncate or be undefined.
        if (!(double_ >= -0x1p63 && double_ < 0x1p63) ||
            std::trunc(double_) != double_)
            fatal("json: ", double_, " is not an integer in range");
        return static_cast<std::int64_t>(double_);
    }
    panic("json: asInt on non-number");
}

double
Value::asDouble() const
{
    if (kind_ == Kind::Int)
        return static_cast<double>(int_);
    if (kind_ == Kind::Double)
        return double_;
    panic("json: asDouble on non-number");
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        panic("json: asString on non-string");
    return string_;
}

const Array &
Value::asArray() const
{
    if (kind_ != Kind::Array)
        panic("json: asArray on non-array");
    return *array_;
}

const Object &
Value::asObject() const
{
    if (kind_ != Kind::Object)
        panic("json: asObject on non-object");
    return *object_;
}

const Value &
Value::operator[](const std::string &key) const
{
    if (kind_ != Kind::Object)
        return kNull;
    auto it = object_->find(key);
    return it == object_->end() ? kNull : it->second;
}

const Value &
Value::at(std::size_t index) const
{
    if (kind_ != Kind::Array || index >= array_->size())
        return kNull;
    return (*array_)[index];
}

void
escape(std::string &out, const std::string &text)
{
    out += '"';
    for (char ch : text) {
        auto c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
}

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        return;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        return;
      case Kind::Int:
        out += std::to_string(int_);
        return;
      case Kind::Double: {
        if (!std::isfinite(double_)) {
            out += "null"; // JSON has no Inf/NaN
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        out += buf;
        return;
      }
      case Kind::String:
        escape(out, string_);
        return;
      case Kind::Array: {
        if (array_->empty()) {
            out += "[]";
            return;
        }
        out += '[';
        bool first = true;
        for (const Value &v : *array_) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        return;
      }
      case Kind::Object: {
        if (object_->empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, v] : *object_) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            escape(out, key);
            out += indent > 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        return;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over the whole document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        fatal("json parse error at offset ", pos_, ": ", why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(cat("expected '", c, "', got '", peek(), "'"));
        ++pos_;
    }

    bool
    consume(const char *literal)
    {
        std::size_t n = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, n, literal) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    value()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{': return object();
          case '[': return array();
          case '"': return Value(string());
          case 't':
            if (!consume("true"))
                fail("bad literal");
            return Value(true);
          case 'f':
            if (!consume("false"))
                fail("bad literal");
            return Value(false);
          case 'n':
            if (!consume("null"))
                fail("bad literal");
            return Value(nullptr);
          default: return number();
        }
    }

    Value
    object()
    {
        expect('{');
        Object out;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(out));
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            out[std::move(key)] = value();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value(std::move(out));
        }
    }

    Value
    array()
    {
        expect('[');
        Array out;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(out));
        }
        while (true) {
            out.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value(std::move(out));
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // UTF-8 encode (surrogate pairs are passed through as
                // two 3-byte sequences; good enough for trace names).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default: fail("bad escape character");
            }
        }
    }

    /** The next character, '\0' at the end (numbers may end the
     *  document). */
    char
    cur() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    /** Consume a run of digits; false if there is none. */
    bool
    digits()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    /** RFC 8259 numbers only: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
     *  and finite — no leading zeros, no bare '.' at either end. */
    Value
    number()
    {
        std::size_t start = pos_;
        if (cur() == '-')
            ++pos_;
        auto bad = [&]() { // quote the text through the offending char
            fail(cat("bad number '", text_.substr(start, pos_ + 1 - start),
                     "'"));
        };
        if (cur() == '0') {
            ++pos_;
        } else if (!digits()) {
            bad();
        }
        bool integral = true;
        if (cur() == '.') {
            ++pos_;
            integral = false;
            if (!digits())
                bad();
        }
        if (cur() == 'e' || cur() == 'E') {
            ++pos_;
            integral = false;
            if (cur() == '+' || cur() == '-')
                ++pos_;
            if (!digits())
                bad();
        }
        if (std::isdigit(static_cast<unsigned char>(cur())) ||
            cur() == '.')
            bad(); // a leading zero followed by more digits, or "1.2.3"
        std::string tok = text_.substr(start, pos_ - start);
        if (integral) {
            errno = 0;
            char *end = nullptr;
            long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return Value(static_cast<std::int64_t>(v));
        }
        char *end = nullptr;
        double d = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0' || !std::isfinite(d))
            fail(cat("bad number '", tok, "'"));
        return Value(d);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace swapram::support::json
