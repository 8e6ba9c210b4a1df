#include "common/cli.hh"

#include <algorithm>
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

namespace {

std::optional<double>
parseFinite(const std::string &s)
{
    if (s.empty())
        return std::nullopt;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::optional<double>
parsePositive(const std::string &s, double hi)
{
    std::optional<double> v = parseFinite(s);
    return v && *v > 0 && *v <= hi ? v : std::nullopt;
}

std::optional<double>
parseFraction(const std::string &s)
{
    std::optional<double> v = parseFinite(s);
    return v && *v >= 0 && *v <= 1 ? v : std::nullopt;
}

FlagTable::FlagTable(std::string tool_, std::string about_)
    : tool(std::move(tool_)), about(std::move(about_))
{
}

FlagTable &
FlagTable::add(const std::string &name, const std::string &meta,
               const std::string &help, const std::string &want,
               const std::string &dflt,
               std::function<bool(const std::string &)> set)
{
    args.push_back({name, meta, help, want, dflt, std::move(set)});
    return *this;
}

FlagTable &
FlagTable::toggle(const std::string &name, std::function<void()> set,
                  const std::string &help)
{
    return add(name, "", help, "", "", [set](const std::string &) {
        set();
        return true;
    });
}

FlagTable &
FlagTable::toggle(const std::string &name, bool &v,
                  const std::string &help)
{
    return toggle(name, [&v] { v = true; }, help);
}

FlagTable &
FlagTable::jobs(const std::string &name, unsigned &v)
{
    return count(name, v, 1, "host worker threads (output is identical "
                             "for every count)",
                 kMaxJobs);
}

FlagTable &
FlagTable::positive(const std::string &name, double &v,
                    const std::string &help, double hi)
{
    return add(name, "X", help,
               std::isinf(hi) ? "a positive number"
                              : "a number in (0, " + number(hi) + "]",
               number(v), [&v, hi](const std::string &s) {
                   std::optional<double> x = parsePositive(s, hi);
                   if (x)
                       v = *x;
                   return x.has_value();
               });
}

FlagTable &
FlagTable::fraction(const std::string &name, double &v,
                    const std::string &help)
{
    return add(name, "F", help, "a number in [0, 1]", number(v),
               [&v](const std::string &s) {
                   std::optional<double> x = parseFraction(s);
                   if (x)
                       v = *x;
                   return x.has_value();
               });
}

FlagTable &
FlagTable::text(const std::string &name, std::string &v,
                const std::string &meta, const std::string &help)
{
    return add(name, meta, help, "", v, [&v](const std::string &s) {
        v = s;
        return true;
    });
}

FlagTable &
FlagTable::choice(const std::string &name, std::string &v,
                  const std::vector<std::string> &choices,
                  const std::string &help)
{
    std::string want = "one of ";
    for (const std::string &c : choices)
        want += (&c == &choices.front() ? "" : "|") + c;
    return add(name, "NAME", help, want, v,
               [&v, choices](const std::string &s) {
                   bool ok = std::find(choices.begin(), choices.end(),
                                       s) != choices.end();
                   if (ok)
                       v = s;
                   return ok;
               });
}

FlagTable &
FlagTable::rest(std::vector<std::string> &v, const std::string &meta,
                const std::string &help)
{
    restOut = &v;
    restMeta = meta;
    restHelp = help;
    return *this;
}

void
FlagTable::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n", tool.c_str(), message.c_str());
    std::exit(2);
}

void
FlagTable::printHelp() const
{
    std::string synopsis;
    for (const Arg &a : args)
        if (a.name[0] != '-')
            synopsis += " [" + a.name + "]";
    if (restOut)
        synopsis += " [" + restMeta + "...]";
    std::printf("usage: %s%s [options]\n%s\n\n", tool.c_str(),
                synopsis.c_str(), about.c_str());
    auto line = [](const std::string &label, const std::string &text) {
        std::printf("  %-22s %s\n", label.c_str(), text.c_str());
    };
    if (restOut)
        line(restMeta + "...", restHelp);
    // Positionals first, then flags, each in declaration order.
    for (bool flags : {false, true}) {
        for (const Arg &a : args) {
            if ((a.name[0] == '-') != flags)
                continue;
            std::string text = a.help;
            if (!a.want.empty())
                text += ": " + a.want;
            if (!a.dflt.empty())
                text += " (default " + a.dflt + ")";
            line(flags && !a.meta.empty() ? a.name + "=" + a.meta
                                          : a.name,
                 text);
        }
    }
    line("--help", "print this help and exit");
}

void
FlagTable::parse(int argc, char **argv)
{
    std::vector<std::optional<std::string>> given(args.size());
    std::vector<std::string> extra;
    std::size_t nextPositional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printHelp();
            std::exit(0);
        }
        const bool flag = a.rfind("--", 0) == 0;
        const std::string::size_type eq = flag ? a.find('=') : 0;
        const std::string name = flag ? a.substr(0, eq) : "";
        std::size_t k = 0;
        for (; k < args.size(); ++k) {
            if (flag ? args[k].name == name
                     : args[k].name[0] != '-' && k >= nextPositional)
                break;
        }
        if (k == args.size()) {
            if (flag)
                fail("unknown option '" + name + "' (try --help)");
            if (!restOut)
                fail("unexpected argument '" + a + "' (try --help)");
            extra.push_back(a);
            continue;
        }
        if (!flag) {
            nextPositional = k + 1;
            given[k] = a;
        } else if (args[k].meta.empty()) {
            if (eq != std::string::npos)
                fail(name + " takes no value");
            given[k] = "";
        } else if (eq != std::string::npos) {
            given[k] = a.substr(eq + 1);
        } else if (i + 1 < argc) {
            given[k] = argv[++i];
        } else {
            fail(name + " needs a value");
        }
    }
    for (std::size_t k = 0; k < args.size(); ++k)
        if (given[k] && !args[k].set(*given[k]))
            fail(args[k].name + " needs " + args[k].want + ", got '" +
                 *given[k] + "'");
    if (restOut)
        *restOut = extra;
}

} // namespace terp
