/**
 * @file
 * Per-power-interval rollups. A power interval is one contiguous
 * power-on span: run start (or an OutageEnd boot) up to the next
 * OutageBegin (or graceful completion). SystemSim aggregates a small
 * fixed record per interval so run JSON can answer "how did dirty
 * state and cleaning behave between outages #3 and #4" without a full
 * timeline attached.
 */

#ifndef WLCACHE_TELEMETRY_ROLLUP_HH
#define WLCACHE_TELEMETRY_ROLLUP_HH

#include <cstdint>

#include "sim/types.hh"

namespace wlcache {
namespace telemetry {

struct IntervalRollup
{
    std::uint64_t index = 0;       //!< 0-based power-on interval.
    Cycle start_cycle = 0;         //!< Boot (or run start) cycle.
    Cycle end_cycle = 0;           //!< Outage (or completion) cycle.
    std::uint64_t instructions = 0;
    std::uint64_t nvm_writes = 0;
    std::uint64_t cleans = 0;      //!< Async cleanings issued.
    unsigned dirty_high_water = 0; //!< Peak concurrently-dirty lines.
    double checkpoint_j = 0.0;     //!< Energy of the closing ckpt (J).
    double harvested_j = 0.0;      //!< Ambient energy taken in (J).

    bool operator==(const IntervalRollup &) const = default;
};

} // namespace telemetry
} // namespace wlcache

#endif // WLCACHE_TELEMETRY_ROLLUP_HH
