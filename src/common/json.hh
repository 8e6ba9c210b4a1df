/**
 * @file
 * JSON string escaping for the writers that render JSON by hand
 * (metrics export, crash summaries, the benchmark history log).
 */

#ifndef TERP_COMMON_JSON_HH
#define TERP_COMMON_JSON_HH

#include <string>

namespace terp {

/**
 * Escape @p s for the inside of a JSON string literal: quote and
 * backslash, \n \r \t by name, and every other byte below 0x20 as
 * \u00XX (JSON forbids raw control characters in strings).
 */
std::string jsonEscape(const std::string &s);

} // namespace terp

#endif // TERP_COMMON_JSON_HH
