/**
 * @file
 * The one golden-file step of the tools: write a rendered text with
 * --write-golden, compare it whole against a checked-in file with
 * --golden.
 */

#ifndef TERP_COMMON_GOLDEN_HH
#define TERP_COMMON_GOLDEN_HH

#include <optional>
#include <string>

namespace terp {

/** The whole of the file at @p path, or nullopt when unreadable. */
std::optional<std::string> readFile(const std::string &path);

/**
 * Write @p text to @p writePath, then compare it with the whole of
 * @p checkPath; an empty path skips its step. Drift reports the
 * first differing lines on stderr, each prefixed with @p tool.
 *
 * @return 0 when written and matching, 1 on drift, 2 when a file
 *         cannot be read or written.
 */
int golden(const char *tool, const std::string &text,
           const std::string &checkPath, const std::string &writePath);

} // namespace terp

#endif // TERP_COMMON_GOLDEN_HH
