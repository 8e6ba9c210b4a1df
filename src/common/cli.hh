/**
 * @file
 * The one command-line front end of every binary: strict value
 * parsers and a declarative flag table.
 *
 * strtoul alone accepts "-1" (wrapping it to the type's maximum),
 * "abc" (as 0) and trailing junk; the parsers here accept only a
 * whole, in-range value. A FlagTable binds each flag and positional
 * to a variable once, generates --help from the declarations, and
 * turns every bad argument into one stderr line and exit status 2.
 */

#ifndef TERP_COMMON_CLI_HH
#define TERP_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace terp {

/**
 * @p s as a decimal or 0x-prefixed unsigned integer in [lo, hi], or
 * nullopt when it is empty, signed, not a number, has trailing
 * characters, or lies outside the range.
 */
std::optional<std::uint64_t>
parseUnsigned(const std::string &s, std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/** @p s as a finite number in (0, hi], or nullopt. */
std::optional<double>
parsePositive(const std::string &s,
              double hi = std::numeric_limits<double>::infinity());

/** @p s as a number in [0, 1], or nullopt. */
std::optional<double> parseFraction(const std::string &s);

/**
 * Host worker threads a --jobs or --workers flag may ask for. Work
 * is split into at most this many threads; checking the bound at
 * parse time means a typo never reaches a thread pool.
 */
constexpr unsigned kMaxJobs = 256;

/**
 * A binary's flags and positionals, declared once.
 *
 * A name starting with "--" declares a flag, given as `--f=V` or
 * `--f V`; any other name declares a positional, filled in
 * declaration order and optional unless the caller checks. Each
 * declaration reads the bound variable's current value as the
 * default shown by --help.
 *
 * parse() writes the variables in declaration order, whatever order
 * the command line gives them in, so a flag that resets a whole
 * configuration (terp-serve's --quick) is declared first and never
 * overwrites a value given beside it. A repeated flag keeps its last
 * value.
 */
class FlagTable
{
  public:
    /** @p about is the one-line description --help prints. */
    FlagTable(std::string tool, std::string about);

    /** A flag without a value that runs @p set. */
    FlagTable &toggle(const std::string &name, std::function<void()> set,
                      const std::string &help);
    /** A flag without a value that sets @p v. */
    FlagTable &toggle(const std::string &name, bool &v,
                      const std::string &help);

    /** An integer in [lo, hi]; @p hi defaults to @p T's maximum. */
    template <typename T>
    FlagTable &
    count(const std::string &name, T &v, std::uint64_t lo,
          const std::string &help,
          std::uint64_t hi = std::numeric_limits<T>::max())
    {
        return add(name, "N", help,
                   "an integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]",
                   std::to_string(v), [&v, lo, hi](const std::string &s) {
                       std::optional<std::uint64_t> n =
                           parseUnsigned(s, lo, hi);
                       if (n)
                           v = static_cast<T>(*n);
                       return n.has_value();
                   });
    }

    /** A host thread count in [1, kMaxJobs]. */
    FlagTable &jobs(const std::string &name, unsigned &v);

    /** A finite number in (0, hi]. */
    FlagTable &
    positive(const std::string &name, double &v, const std::string &help,
             double hi = std::numeric_limits<double>::infinity());

    /** A number in [0, 1]. */
    FlagTable &fraction(const std::string &name, double &v,
                        const std::string &help);

    /** Any string; @p meta names it in --help ("FILE", "DIR"). */
    FlagTable &text(const std::string &name, std::string &v,
                    const std::string &meta, const std::string &help);

    /** One of @p choices. */
    FlagTable &choice(const std::string &name, std::string &v,
                      const std::vector<std::string> &choices,
                      const std::string &help);

    /** Every positional past the declared ones. */
    FlagTable &rest(std::vector<std::string> &v, const std::string &meta,
                    const std::string &help);

    /**
     * Parse @p argv into the bound variables. --help (or -h) prints
     * the generated usage on stdout and exits 0; an unknown flag, a
     * missing or rejected value, or a surplus positional calls
     * fail().
     */
    void parse(int argc, char **argv);

    /** One "<tool>: <message>" line on stderr, then exit(2). */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    struct Arg
    {
        std::string name, meta, help, want, dflt;
        std::function<bool(const std::string &)> set;
    };

    FlagTable &add(const std::string &name, const std::string &meta,
                   const std::string &help, const std::string &want,
                   const std::string &dflt,
                   std::function<bool(const std::string &)> set);
    void printHelp() const;

    std::string tool, about;
    std::vector<Arg> args;
    std::vector<std::string> *restOut = nullptr;
    std::string restMeta, restHelp;
};

} // namespace terp

#endif // TERP_COMMON_CLI_HH
