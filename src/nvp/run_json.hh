/**
 * @file
 * Machine-readable run records: serialize a RunResult as JSON so
 * external tooling (plotters, regression dashboards) can consume
 * simulation results without scraping tables, and parse one back so
 * the runner's result cache can skip finished simulations. The same
 * field list (run_json.cc) drives the snapshot's "RES " section, so a
 * new RunResult field is one line there.
 */

#ifndef WLCACHE_NVP_RUN_JSON_HH
#define WLCACHE_NVP_RUN_JSON_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "nvp/system.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace nvp {

/**
 * Format version of the run record. Bump whenever the RunResult
 * schema (or the meaning of an existing field) changes: the strict
 * reader rejects records carrying any other version, so a result
 * cache written by an old binary is invalidated rather than silently
 * reused with missing/reinterpreted fields.
 *
 * History: 1 = PR-1 runner cache; 2 = verification-campaign fields
 * (forced outages, divergence record, final-state digest); 3 =
 * telemetry fields (embedded stats tree, per-power-interval rollups);
 * 4 = banked-device fields; 5 = row-buffer counters and the
 * "nvm_log" journal block (WL-Log write path).
 */
inline constexpr std::uint64_t kRunRecordVersion = 5;

/**
 * Write @p r as a single JSON object (pretty-printed, stable key
 * order). The energy breakdown nests under "energy_j" by category.
 * Doubles are written with 17 significant digits so a parsed record
 * reproduces the original values bit for bit.
 */
void writeRunResultJson(std::ostream &os, const RunResult &r);

/**
 * Parse a writeRunResultJson() record. Strict: every field must be
 * present with the right type, so a truncated or corrupted cache
 * entry is rejected rather than half-applied.
 *
 * @param is Stream positioned at the record.
 * @param out Receives the result; untouched on failure.
 * @param err Optional one-line diagnostic on failure.
 * @return true when @p out holds a complete record.
 */
bool readRunResultJson(std::istream &is, RunResult &out,
                       std::string *err = nullptr);

/** Write every RunResult field as a snapshot's "RES " section. */
void saveRunResult(SnapshotWriter &w, const RunResult &r);

/** Read a "RES " section written by saveRunResult() into @p out. */
void restoreRunResult(SnapshotReader &r, RunResult &out);

} // namespace nvp
} // namespace wlcache

#endif // WLCACHE_NVP_RUN_JSON_HH
