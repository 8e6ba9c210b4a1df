#include "common/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace terp {

std::optional<std::uint64_t>
parseUnsigned(const std::string &s, std::uint64_t lo, std::uint64_t hi)
{
    // strtoull skips leading blanks and takes a sign; neither belongs
    // in a count.
    if (s.empty() || !(s[0] >= '0' && s[0] <= '9'))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return v;
}

std::optional<double>
parsePositive(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v) || v <= 0)
        return std::nullopt;
    return v;
}

std::uint64_t
unsignedFlag(const char *tool, const std::string &flag,
             const std::string &value, std::uint64_t lo, std::uint64_t hi)
{
    std::optional<std::uint64_t> v = parseUnsigned(value, lo, hi);
    if (!v) {
        std::fprintf(stderr, "%s: %s needs an integer in [%llu, %llu], "
                             "got '%s'\n",
                     tool, flag.c_str(), (unsigned long long)lo,
                     (unsigned long long)hi, value.c_str());
        std::exit(2);
    }
    return *v;
}

double
positiveFlag(const char *tool, const std::string &flag,
             const std::string &value)
{
    std::optional<double> v = parsePositive(value);
    if (!v) {
        std::fprintf(stderr, "%s: %s needs a positive number, got '%s'\n",
                     tool, flag.c_str(), value.c_str());
        std::exit(2);
    }
    return *v;
}

} // namespace terp
