#include "check/fuzzer.hh"

#include <algorithm>
#include <stdexcept>

#include "check/shrink.hh"

namespace terp {
namespace check {

std::vector<std::string>
allSchemes()
{
    // schemeTags() lists "unprotected" first.
    const std::vector<std::string> &tags = core::schemeTags();
    return {tags.begin() + 1, tags.end()};
}

core::RuntimeConfig
schemeConfig(const std::string &name, Cycles ew)
{
    const std::vector<std::string> &tags = core::schemeTags();
    if (name == "unprotected" ||
        std::find(tags.begin(), tags.end(), name) == tags.end())
        throw std::invalid_argument("unknown scheme: " + name);
    return core::RuntimeConfig::named(name, ew);
}

FuzzResult
fuzz(const FuzzOptions &opt)
{
    FuzzResult res;
    std::vector<std::string> schemes =
        opt.schemes.empty() ? allSchemes() : opt.schemes;

    for (const std::string &scheme : schemes) {
        core::RuntimeConfig cfg =
            schemeConfig(scheme, opt.gen.ewTarget);
        for (unsigned i = 0; i < opt.seeds; ++i) {
            std::uint64_t seed = opt.firstSeed + i;
            Schedule s = generate(seed, cfg, opt.gen);
            DiffResult d = runSchedule(s, cfg);
            ++res.executed;
            if (d.ok)
                continue;

            Divergence div;
            div.scheme = scheme;
            div.seed = seed;
            if (opt.shrink) {
                div.shrunk = shrink(s, cfg);
                div.complaints =
                    runSchedule(div.shrunk, cfg).complaints;
            } else {
                div.shrunk = s;
                div.complaints = d.complaints;
            }
            div.reproducer =
                reproducerSnippet(div.shrunk, scheme, seed);
            res.divergences.push_back(std::move(div));
        }
    }
    return res;
}

} // namespace check
} // namespace terp
