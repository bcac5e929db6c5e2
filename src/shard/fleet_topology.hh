/**
 * @file
 * Fleet topology: how many SSDs sit behind the switch and (optionally)
 * per-device geometry — loadable from a small JSON file so the device
 * count is runtime configuration rather than a hardcode.
 *
 * JSON shape (every key optional):
 *
 *   {
 *     "ssds": 4,                   // 1 .. host::kMaxSsds
 *     "devices": [                 // per-device overrides, in order
 *       {"cores": 4, "channels": 8, "diesPerChannel": 4,
 *        "dramMiB": 2048, "label": "rack0"},
 *       {}                         // empty = inherit the template SSD
 *     ]
 *   }
 *
 * Unknown keys are ignored (forward compatibility; files that still
 * carry the retired "policy"/"stripeKiB" keys load unchanged).
 * Malformed JSON, and integers that overflow 64 bits or their
 * destination field, are fatal configuration errors.
 */

#ifndef MORPHEUS_SHARD_FLEET_TOPOLOGY_HH
#define MORPHEUS_SHARD_FLEET_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host/system_config.hh"

namespace morpheus::shard {

/** Geometry overrides for one fleet device (0 = inherit template). */
struct DeviceSpec
{
    unsigned cores = 0;
    unsigned channels = 0;
    unsigned diesPerChannel = 0;
    std::uint64_t dramBytes = 0;
    std::string label;
};

/** The fleet-level configuration. */
struct FleetTopology
{
    unsigned numSsds = 1;
    /** Per-device overrides; devices beyond the list inherit the
     *  SystemConfig's template SSD. */
    std::vector<DeviceSpec> devices;

    /** Stamp the topology into @p sys: numSsds plus one SsdConfig per
     *  overridden device (template-derived, overrides applied). */
    void apply(host::SystemConfig &sys) const;

    /** Parse the JSON text above (fatal on malformed input). */
    static FleetTopology fromJson(const std::string &text);

    /** fromJson() over the contents of @p path. */
    static FleetTopology fromFile(const std::string &path);
};

}  // namespace morpheus::shard

#endif  // MORPHEUS_SHARD_FLEET_TOPOLOGY_HH
