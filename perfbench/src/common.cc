#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

namespace perfbench {

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t figureSeed)
{
    if (seed == kDefaultSeed)
        return figureSeed;
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) ^ figureSeed;
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(u.ru_utime) + tv(u.ru_stime);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Each worker claims the next index; results go to slots the
    // caller pre-sized, so claim order never changes an output.
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(jobs);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < jobs; ++w) {
        pool.emplace_back([&, w] {
            try {
                for (std::size_t i; (i = next.fetch_add(1)) < n;)
                    fn(i);
            } catch (...) {
                errors[w] = std::current_exception();
                next.store(n);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    for (auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

unsigned
passJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
hdQuantile(std::vector<double> v, double q)
{
    if (v.size() < 2)
        return v.empty() ? 0 : v[0];
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = q * (n + 1), b = (1 - q) * (n + 1);
    const double lnBeta =
        std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    // v[i] weighs the Beta(a, b) mass on [i/n, (i+1)/n], integrated
    // by the midpoint rule; the weights are renormalised to sum to 1.
    constexpr int kSteps = 256;
    double sum = 0, total = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        double w = 0;
        for (int k = 0; k < kSteps; ++k) {
            double x =
                (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
            w += std::exp((a - 1) * std::log(x) +
                          (b - 1) * std::log1p(-x) - lnBeta);
        }
        sum += w * v[i];
        total += w;
    }
    return sum / total;
}

} // namespace perfbench
