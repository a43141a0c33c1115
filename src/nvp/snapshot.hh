/**
 * @file
 * Deterministic whole-system snapshots. A SystemSnapshot captures the
 * complete mutable state of a SystemSim mid-run — core, caches,
 * capacitor, harvester phase, NVFF bank, RNGs, statistics, and a
 * copy-on-write NVM delta journal — such that resuming from it is
 * observationally identical to having executed the prefix cold: same
 * RunResult, same final-image digest, same post-resume timeline.
 *
 * Fault-injection campaigns use interval snapshots of the golden run
 * to fast-forward each injection point past its (identical) prefix,
 * and persist that ladder with runner::SnapshotStore.
 */

#ifndef WLCACHE_NVP_SNAPSHOT_HH
#define WLCACHE_NVP_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace wlcache {
namespace nvp {

/** One captured system state, taken at an event-loop boundary. */
struct SystemSnapshot
{
    /**
     * Bump when the component serialization layout changes.
     * 2 = integer-attojoule energy state (meter/capacitor/harvester
     * sections became u64, harvester cursor moved to the cycle grid,
     * SYS2 carries the quantized backup level).
     * 4 = NVM row-buffer and log-journal counters in the RES section;
     * WL-Log designs append an NLOG journal section.
     * 5 = the RES section follows the run record's one field list
     * (JSON order: intervals_dropped before the intervals, the
     * energy meter last).
     */
    static constexpr std::uint32_t kFormatVersion = 5;

    /**
     * Resume-compatibility key: hash of every configuration and trace
     * property the captured state depends on (the resolved
     * SystemConfig with the forced-outage schedule and fault-injection
     * flags neutralized, plus the trace identity). restoreSnapshot()
     * refuses a snapshot whose key disagrees with the restoring
     * system's own.
     */
    std::string compat_key;

    /** Simulation cycle at capture (event-loop top). */
    Cycle cycle = 0;

    /** Trace events consumed at capture. */
    std::uint64_t event_index = 0;

    /** Sectioned component byte stream (sim/snapshot.hh framing). */
    std::vector<std::uint8_t> state;

    bool valid() const { return !state.empty(); }
};

/**
 * The interval snapshots of one golden run, ascending by cycle.
 * bestBefore() answers "which snapshot lets me fast-forward closest
 * to cycle c without overshooting it".
 */
struct SnapshotSet
{
    Cycle interval = 0;
    std::vector<SystemSnapshot> snaps;

    /**
     * Latest snapshot captured strictly before @p c (a snapshot AT
     * the target cycle is too late: the forced-outage comparison for
     * that cycle has already been passed at capture time).
     * @return null when no snapshot precedes @p c.
     */
    const SystemSnapshot *bestBefore(Cycle c) const;
};

/**
 * Encode a snapshot as a self-describing binary blob (magic +
 * format version + fields) for the on-disk snapshot store.
 */
std::vector<std::uint8_t> encodeSnapshot(const SystemSnapshot &s);

/**
 * Decode a blob produced by encodeSnapshot().
 * @return false (leaving @p out untouched) on any corruption: bad
 * magic, unknown version, or truncation. Never panics — a damaged
 * store entry is a cache miss, not a fatal error.
 */
bool decodeSnapshot(const std::vector<std::uint8_t> &blob,
                    SystemSnapshot &out);

/** Encode a snapshot set (a `.snapset` file's bytes). */
std::vector<std::uint8_t> encodeSnapshotSet(const SnapshotSet &set);

/**
 * Decode a blob produced by encodeSnapshotSet().
 * @return false (leaving @p out untouched) on any corruption, with
 * the same never-panic contract as decodeSnapshot(). The entry count
 * is checked against the bytes present before anything is allocated.
 */
bool decodeSnapshotSet(const std::vector<std::uint8_t> &blob,
                       SnapshotSet &out);

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_SNAPSHOT_HH
