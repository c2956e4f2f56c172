/**
 * @file
 * The minimal JSON-lines reading layer shared by every duet_sim wire
 * format: the SweepRow result rows (sim/sweep.hh), the scenario
 * service's request/response objects (service/scenario_service.hh) and
 * the `--serve` control lines (service/serve.cc). All of them go
 * through one object walker, readObject(): it owns the braces, the
 * member loop, the commas and the trailing-garbage check, and each
 * format is a visitor mapping keys to fields.
 *
 * This is deliberately not a general JSON library — it reads exactly
 * the one-object-per-line dialect jsonQuote()/writeJsonLine() emit
 * (plus the standard short escapes, for hand-written files), with
 * one-line diagnostics instead of exceptions so malformed input from a
 * client or a crashed worker never takes the reader down.
 */

#ifndef DUET_SIM_JSON_HH
#define DUET_SIM_JSON_HH

#include <cstdint>
#include <string>

#include "sim/inline_function.hh"

namespace duet
{
namespace json
{

/** Cursor over one JSON-lines object; the helpers consume from @p i
 *  and report one-line diagnostics through @p err. */
struct Cursor
{
    const std::string &s;
    std::size_t i = 0;
    std::string &err;

    void skipWs();

    /** Consume @p ch (after whitespace); false + diagnostic otherwise. */
    bool expect(char ch);

    /** True when the next non-space character is @p ch (not consumed). */
    bool peek(char ch);

    /** Parse a quoted string, undoing jsonQuote()'s escapes (plus the
     *  standard short escapes, for hand-written files). */
    bool parseString(std::string &out);

    /** Consume a number/true/false/null token verbatim. */
    bool parseScalarToken(std::string &out);

    /** Skip one value of any shape — string, scalar, or a (string-
     *  aware) balanced array/object — so unknown keys stay forward-
     *  compatible whatever a future writer puts in them. */
    bool skipValue();

    /** After the object's '}': anything but trailing whitespace is an
     *  error ("trailing garbage after the object"). */
    bool atLineEnd();
};

/**
 * One member of the object readObject() is walking: its key, and typed
 * readers that consume its value. A reader whose value has the wrong
 * shape fails with "key 'K' wants a string value" (or "... wants an
 * unquoted value"); a number out of range fails too. A member the
 * visitor leaves unread is skipped, whatever its value's shape.
 */
class Member
{
  public:
    const std::string &key() const { return key_; }

    bool str(std::string &out);
    /** A quoted string or a bare token, kept verbatim (ids). */
    bool strOrToken(std::string &out);
    bool u32(unsigned &out);
    bool u64(std::uint64_t &out);
    bool f64(double &out);
    bool boolean(bool &out);
    bool skip();

  private:
    friend bool readObject(const std::string &, std::string &,
                           FunctionRef<bool(Member &)>);

    explicit Member(Cursor &c) : c_(c) {}
    bool token(std::string &out);

    Cursor &c_;
    std::string key_;
    bool read_ = false;
};

/**
 * Walk the one JSON object on @p line, handing each member to @p visit
 * in order. False (with @p err filled) when the line is not exactly one
 * object, when a reader fails, or when @p visit returns false — a
 * visitor that rejects a member sets @p err itself.
 */
bool readObject(const std::string &line, std::string &err,
                FunctionRef<bool(Member &)> visit);

/** Strict decimal token conversions, with one-line diagnostics. */
bool tokenToU64(const std::string &tok, std::uint64_t &out,
                std::string &err);
bool tokenToU32(const std::string &tok, unsigned &out, std::string &err);
bool tokenToDouble(const std::string &tok, double &out, std::string &err);

} // namespace json
} // namespace duet

#endif // DUET_SIM_JSON_HH
