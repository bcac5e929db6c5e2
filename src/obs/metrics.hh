/**
 * @file
 * MetricsRegistry: one hierarchical, deterministically ordered view of
 * every component's counters.
 *
 * Components write their counters' current values in directly
 * (HostSystem::writeStats and MorpheusDeviceRuntime::writeStats walk
 * the whole machine at collection time), so the registry holds values,
 * not pointers. That lets a driver hand the federated metrics of a
 * whole run — per-tenant serving quantiles next to the device's
 * admission/bounce/placement counters — back to its caller after the
 * simulated machine is gone.
 *
 * Names are dot-separated paths ("ssd.sched.arbiter.instancesAdmitted");
 * report() dumps them flat in sorted order, writeJson() nests them
 * into one JSON object per path segment.
 */

#ifndef MORPHEUS_OBS_METRICS_HH
#define MORPHEUS_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace morpheus::obs {

/** Value-snapshotting federation of component stats. */
class MetricsRegistry
{
  public:
    /** Record (or overwrite) an integer metric. */
    void setCounter(const std::string &name, std::uint64_t value);

    /** Record (or overwrite) a floating-point metric. */
    void setScalar(const std::string &name, double value);

    /** Record a component counter: @p name must be new, so two
     *  components that claim one key panic instead of overwriting. */
    void insertCounter(const std::string &name, std::uint64_t value);

    /** Look up a snapshotted counter (0 if absent). */
    std::uint64_t counter(const std::string &name) const;

    /** Look up a snapshotted scalar (0.0 if absent). */
    double scalar(const std::string &name) const;

    bool empty() const { return _counters.empty() && _scalars.empty(); }
    std::size_t size() const { return _counters.size() + _scalars.size(); }
    void clear();

    /** Flat deterministic dump: "name value" lines, sorted by name. */
    void report(std::ostream &os) const;

    /** One nested JSON object, path segments split on '.'. */
    void writeJson(std::ostream &os) const;

    /** Same names, same kinds, same values: two runs federated the
     *  same metrics (a NaN scalar never compares equal). */
    bool operator==(const MetricsRegistry &) const = default;

  private:
    std::map<std::string, std::uint64_t> _counters;
    std::map<std::string, double> _scalars;
};

}  // namespace morpheus::obs

#endif  // MORPHEUS_OBS_METRICS_HH
