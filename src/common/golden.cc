#include "common/golden.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace terp {

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int
golden(const char *tool, const std::string &text,
       const std::string &checkPath, const std::string &writePath)
{
    if (!writePath.empty()) {
        std::ofstream out(writePath, std::ios::binary);
        if (!(out << text)) {
            std::fprintf(stderr, "%s: cannot write %s\n", tool,
                         writePath.c_str());
            return 2;
        }
        std::fprintf(stderr, "%s: wrote golden %s\n", tool,
                     writePath.c_str());
    }
    if (checkPath.empty())
        return 0;
    std::optional<std::string> want = readFile(checkPath);
    if (!want) {
        std::fprintf(stderr, "%s: cannot read golden %s\n", tool,
                     checkPath.c_str());
        return 2;
    }
    if (*want == text) {
        std::fprintf(stderr, "%s: matches golden %s\n", tool,
                     checkPath.c_str());
        return 0;
    }
    // The first differing lines make a usable CI message.
    std::istringstream a(*want), b(text);
    std::string la, lb;
    unsigned lineNo = 0, shown = 0;
    for (;;) {
        bool ha = static_cast<bool>(std::getline(a, la));
        bool hb = static_cast<bool>(std::getline(b, lb));
        if (!ha && !hb)
            break;
        ++lineNo;
        if (ha && hb && la == lb)
            continue;
        std::fprintf(stderr,
                     "%s: DRIFT from %s at line %u:\n  golden: %s\n"
                     "  actual: %s\n",
                     tool, checkPath.c_str(), lineNo,
                     ha ? la.c_str() : "<eof>", hb ? lb.c_str() : "<eof>");
        if (++shown >= 5) {
            std::fprintf(stderr, "%s: (more drift elided)\n", tool);
            break;
        }
    }
    if (shown == 0)
        std::fprintf(stderr, "%s: DRIFT from %s in the final newline\n",
                     tool, checkPath.c_str());
    return 1;
}

} // namespace terp
