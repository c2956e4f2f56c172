#include "sim/json.hh"

#include <cctype>
#include <cstdlib>

#include "sim/config.hh"

namespace duet
{
namespace json
{

void
Cursor::skipWs()
{
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n'))
        ++i;
}

bool
Cursor::expect(char ch)
{
    skipWs();
    if (i >= s.size() || s[i] != ch) {
        err = std::string("expected '") + ch + "' at offset " +
              std::to_string(i);
        return false;
    }
    ++i;
    return true;
}

bool
Cursor::peek(char ch)
{
    skipWs();
    return i < s.size() && s[i] == ch;
}

bool
Cursor::parseString(std::string &out)
{
    if (!expect('"'))
        return false;
    out.clear();
    while (true) {
        if (i >= s.size()) {
            err = "unterminated string";
            return false;
        }
        const char ch = s[i++];
        if (ch == '"')
            return true;
        if (ch != '\\') {
            out += ch;
            continue;
        }
        if (i >= s.size()) {
            err = "dangling escape at end of string";
            return false;
        }
        const char esc = s[i++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out += esc;
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (i + 4 > s.size()) {
                err = "truncated \\u escape";
                return false;
            }
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
                const char h = s[i++];
                code <<= 4;
                if (h >= '0' && h <= '9')
                    code |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    code |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    code |= static_cast<unsigned>(h - 'A' + 10);
                else {
                    err = "bad hex digit in \\u escape";
                    return false;
                }
            }
            // jsonQuote only emits \u for control bytes; anything
            // past one byte would need UTF-8 re-encoding we never
            // produce.
            if (code > 0xff) {
                err = "\\u escape past U+00FF is not supported";
                return false;
            }
            out += static_cast<char>(code);
            break;
          }
          default:
            err = std::string("unknown escape '\\") + esc + "'";
            return false;
        }
    }
}

bool
Cursor::parseScalarToken(std::string &out)
{
    skipWs();
    const std::size_t start = i;
    while (i < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[i])) != 0 ||
            s[i] == '+' || s[i] == '-' || s[i] == '.'))
        ++i;
    if (i == start) {
        err = "expected a value at offset " + std::to_string(start);
        return false;
    }
    out = s.substr(start, i - start);
    return true;
}

bool
Cursor::skipValue()
{
    skipWs();
    if (i >= s.size()) {
        err = "expected a value at offset " + std::to_string(i);
        return false;
    }
    const char first = s[i];
    if (first == '"') {
        std::string sink;
        return parseString(sink);
    }
    if (first != '[' && first != '{') {
        std::string sink;
        return parseScalarToken(sink);
    }
    std::string stack;
    while (true) {
        if (i >= s.size()) {
            err = "unterminated composite value";
            return false;
        }
        const char ch = s[i];
        if (ch == '"') {
            std::string sink;
            if (!parseString(sink))
                return false;
            continue;
        }
        ++i;
        if (ch == '[' || ch == '{') {
            stack += ch;
        } else if (ch == ']' || ch == '}') {
            if (stack.empty() ||
                stack.back() != (ch == ']' ? '[' : '{')) {
                err = "mismatched brackets in composite value";
                return false;
            }
            stack.pop_back();
            if (stack.empty())
                return true;
        }
        // Everything else (scalars, commas, colons, whitespace)
        // is structure we do not care about.
    }
}

bool
Cursor::atLineEnd()
{
    skipWs();
    if (i != s.size()) {
        err = "trailing garbage after the object";
        return false;
    }
    return true;
}

bool
Member::token(std::string &out)
{
    read_ = true;
    if (c_.peek('"')) {
        c_.err = "key '" + key_ + "' wants an unquoted value";
        return false;
    }
    return c_.parseScalarToken(out);
}

bool
Member::str(std::string &out)
{
    read_ = true;
    if (!c_.peek('"')) {
        c_.err = "key '" + key_ + "' wants a string value";
        return false;
    }
    return c_.parseString(out);
}

bool
Member::strOrToken(std::string &out)
{
    read_ = true;
    return c_.peek('"') ? c_.parseString(out) : c_.parseScalarToken(out);
}

bool
Member::u32(unsigned &out)
{
    std::string tok;
    return token(tok) && tokenToU32(tok, out, c_.err);
}

bool
Member::u64(std::uint64_t &out)
{
    std::string tok;
    return token(tok) && tokenToU64(tok, out, c_.err);
}

bool
Member::f64(double &out)
{
    std::string tok;
    return token(tok) && tokenToDouble(tok, out, c_.err);
}

bool
Member::boolean(bool &out)
{
    std::string tok;
    if (!token(tok))
        return false;
    if (tok != "true" && tok != "false") {
        c_.err = "bad boolean '" + tok + "'";
        return false;
    }
    out = tok == "true";
    return true;
}

bool
Member::skip()
{
    read_ = true;
    return c_.skipValue();
}

bool
readObject(const std::string &line, std::string &err,
           FunctionRef<bool(Member &)> visit)
{
    Cursor c{line, 0, err};
    if (!c.expect('{'))
        return false;
    if (c.peek('}')) {
        ++c.i;
    } else {
        Member m(c);
        while (true) {
            m.read_ = false;
            if (!c.parseString(m.key_) || !c.expect(':') || !visit(m) ||
                (!m.read_ && !m.skip()))
                return false;
            if (!c.peek(','))
                break;
            ++c.i;
        }
        if (!c.expect('}'))
            return false;
    }
    return c.atLineEnd();
}

bool
tokenToU64(const std::string &tok, std::uint64_t &out, std::string &err)
{
    if (!parseDecimal(tok, out)) {
        err = "bad unsigned value '" + tok + "'";
        return false;
    }
    return true;
}

bool
tokenToU32(const std::string &tok, unsigned &out, std::string &err)
{
    std::uint64_t v = 0;
    if (!tokenToU64(tok, v, err) || v > 0xffffffffull) {
        err = "bad 32-bit value '" + tok + "'";
        return false;
    }
    out = static_cast<unsigned>(v);
    return true;
}

bool
tokenToDouble(const std::string &tok, double &out, std::string &err)
{
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == tok.c_str()) {
        err = "bad number '" + tok + "'";
        return false;
    }
    return true;
}

} // namespace json
} // namespace duet
