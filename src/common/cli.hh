/**
 * @file
 * Strict parsing of numeric command-line values. strtoul alone
 * accepts "-1" (wrapping it to the type's maximum), "abc" (as 0) and
 * trailing junk; these accept only a whole, in-range number.
 */

#ifndef TERP_COMMON_CLI_HH
#define TERP_COMMON_CLI_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace terp {

/**
 * @p s as a decimal or 0x-prefixed unsigned integer in [lo, hi], or
 * nullopt when it is empty, signed, not a number, has trailing
 * characters, or lies outside the range.
 */
std::optional<std::uint64_t>
parseUnsigned(const std::string &s, std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/** @p s as a finite number greater than zero, or nullopt. */
std::optional<double> parsePositive(const std::string &s);

/**
 * The value of @p tool's @p flag through parseUnsigned(), or one
 * "<tool>: <flag> needs ..." line on stderr and exit(2).
 */
std::uint64_t unsignedFlag(const char *tool, const std::string &flag,
                           const std::string &value, std::uint64_t lo,
                           std::uint64_t hi);

/** The same through parsePositive(). */
double positiveFlag(const char *tool, const std::string &flag,
                    const std::string &value);

} // namespace terp

#endif // TERP_COMMON_CLI_HH
