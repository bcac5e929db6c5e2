#include "sim/fault.hh"

#include <cstdlib>
#include <string>

#include "sim/logging.hh"
#include "sim/parse_number.hh"

namespace morpheus::sim {

namespace {

// Distinct salts keep the per-class streams independent: enabling or
// re-rating one fault class never shifts another class's schedule.
constexpr std::uint64_t kMediaSalt = 0x6d65646961ull;  // "media"
constexpr std::uint64_t kDmaSalt = 0x646d61ull;        // "dma"
constexpr std::uint64_t kCrashSalt = 0x6372617368ull;  // "crash"
constexpr std::uint64_t kHangSalt = 0x68616e67ull;     // "hang"
constexpr std::uint64_t kDropSalt = 0x64726f70ull;     // "drop"

FaultInjector *g_injector = nullptr;

}  // namespace

bool
FaultPlan::tryParse(const std::string &spec, FaultPlan *out,
                    std::string *error)
{
    FaultPlan plan;
    const auto fail = [error](auto &&...parts) {
        *error = detail::format(parts...);
        return false;
    };
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return fail("fault plan item '", item, "' is not key=value");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        double *rate = key == "media"   ? &plan.mediaRate
                       : key == "dma"   ? &plan.dmaRate
                       : key == "crash" ? &plan.crashRate
                       : key == "hang"  ? &plan.hangRate
                       : key == "drop"  ? &plan.dropRate
                                        : nullptr;
        Tick watchdog_us = 0;
        std::uint64_t *whole = key == "dma_min"       ? &plan.dmaMinBytes
                               : key == "watchdog_us" ? &watchdog_us
                               : key == "seed"        ? &plan.seed
                                                      : nullptr;
        if (rate != nullptr) {
            if (!parseNumber(value, rate) || *rate < 0.0 || *rate > 1.0)
                return fail("fault rate '", key,
                            "' is not a number or out of [0,1]: ", value);
        } else if (whole == nullptr) {
            return fail("unknown fault plan key '", key, "'");
        } else if (!parseNumber(value, whole) ||
                   watchdog_us > ~Tick{0} / kPsPerUs) {
            return fail("fault plan '", key,
                        "' is not an unsigned integer in range: ", value);
        }
        if (whole == &watchdog_us)
            plan.watchdogTicks = watchdog_us * kPsPerUs;
    }
    *out = plan;
    return true;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::string error;
    if (!tryParse(spec, &plan, &error))
        MORPHEUS_FATAL(error);
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = std::getenv("MORPHEUS_FAULTS");
    if (env == nullptr || *env == '\0')
        return FaultPlan{};
    return parse(env);
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : _plan(plan),
      _mediaRng(plan.seed ^ kMediaSalt),
      _dmaRng(plan.seed ^ kDmaSalt),
      _crashRng(plan.seed ^ kCrashSalt),
      _hangRng(plan.seed ^ kHangSalt),
      _dropRng(plan.seed ^ kDropSalt)
{
}

bool
FaultInjector::mediaError()
{
    if (_plan.mediaRate <= 0.0)
        return false;
    if (!_mediaRng.nextBool(_plan.mediaRate))
        return false;
    ++_mediaErrors;
    return true;
}

bool
FaultInjector::dmaFault(std::uint64_t bytes)
{
    if (_plan.dmaRate <= 0.0 || bytes < _plan.dmaMinBytes)
        return false;
    if (!_dmaRng.nextBool(_plan.dmaRate))
        return false;
    ++_dmaFaults;
    return true;
}

bool
FaultInjector::appCrash()
{
    if (_plan.crashRate <= 0.0)
        return false;
    if (!_crashRng.nextBool(_plan.crashRate))
        return false;
    ++_appCrashes;
    return true;
}

bool
FaultInjector::appHang()
{
    if (_plan.hangRate <= 0.0)
        return false;
    if (!_hangRng.nextBool(_plan.hangRate))
        return false;
    ++_appHangs;
    return true;
}

bool
FaultInjector::dropCqe()
{
    if (_plan.dropRate <= 0.0)
        return false;
    if (!_dropRng.nextBool(_plan.dropRate))
        return false;
    ++_droppedCqes;
    return true;
}

FaultInjector *
faultInjector()
{
    return g_injector;
}

FaultInjector *
setFaultInjector(FaultInjector *fi)
{
    FaultInjector *prev = g_injector;
    g_injector = fi;
    return prev;
}

}  // namespace morpheus::sim
