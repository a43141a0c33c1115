/**
 * @file
 * Exploration report writers, one set per document kind. A plain
 * sweep gets a machine-readable CSV of every evaluated point and a
 * human-readable Markdown frontier report with per-point pointers to
 * the run-record artifacts (the content-addressed run JSONs carrying
 * each point's structured stats and interval rollups). A fleet gets
 * a CSV with per-point fleet totals and a Markdown report with the
 * frontier and a per-node breakdown of the winning point. Every
 * writer is deterministic — no timestamps, no wall-clock, no cache
 * economics outside the CLI summary — so two runs of the same spec
 * produce byte-identical files whether run cold or served from the
 * result cache.
 */

#ifndef WLCACHE_EXPLORE_REPORT_HH
#define WLCACHE_EXPLORE_REPORT_HH

#include <iosfwd>
#include <string>

#include "explore/explorer.hh"

namespace wlcache {
namespace explore {

/**
 * Write every outcome as CSV: point id, one column per swept
 * parameter (union across points; '-' where a point does not bind
 * one), the objective values, the frontier flag, completion, and the
 * content-addressed run key.
 */
void writeCsv(std::ostream &os, const ExploreReport &report);

/**
 * Write the Markdown frontier report. @p cache_dir (the exploration's
 * result-cache directory, may be empty) turns each frontier point's
 * run key into a path to its run-record JSON artifact.
 */
void writeFrontierMarkdown(std::ostream &os,
                           const ExploreReport &report,
                           const std::string &cache_dir);

/**
 * Write the human-readable frontier summary (the one-shot CLI's
 * stdout block: header, frontier table, run economics).
 */
void writeSummaryText(std::ostream &os, const ExploreReport &report);

/**
 * Write every fleet point as CSV: point id, one column per swept
 * parameter (union across points; '-' where unbound), objective
 * values, the frontier flag, completed-node count, and fleet totals.
 */
void writeFleetCsv(std::ostream &os, const ExploreReport &report);

/**
 * Write the Markdown fleet report: scenario header (nodes, jitter,
 * objectives), the frontier table, and a per-node table for the
 * first frontier point.
 */
void writeFleetMarkdown(std::ostream &os, const ExploreReport &report);

/** Write the fleet CLI summary block (frontier table + economics). */
void writeFleetSummaryText(std::ostream &os,
                           const ExploreReport &report);

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_REPORT_HH
