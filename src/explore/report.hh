/**
 * @file
 * Exploration report writers: a machine-readable CSV of every
 * evaluated point and a human-readable Markdown frontier
 * report with per-point pointers to the run-record artifacts (the
 * content-addressed run JSONs carrying each point's structured stats
 * and interval rollups). Both writers are deterministic — no
 * timestamps, no wall-clock, no cache economics — so two runs of the
 * same spec produce byte-identical files whether run cold or served
 * from the result cache.
 */

#ifndef WLCACHE_EXPLORE_REPORT_HH
#define WLCACHE_EXPLORE_REPORT_HH

#include <algorithm>
#include <iosfwd>
#include <string>
#include <vector>

#include "explore/explorer.hh"

namespace wlcache {
namespace explore {

/** Deterministic short-form double ("%.9g") for report cells. */
std::string fmtObjective(double v);

/** Last binding of @p name in @p p, or null. */
const ParamValue *findBinding(const DesignPoint &p,
                              const std::string &name);

/**
 * Union of the parameter names bound by @p outcomes' points (any
 * range of records with a DesignPoint @c point), first-appearance
 * order: the swept-parameter columns of a report.
 */
template <typename Outcomes>
std::vector<std::string>
paramColumns(const Outcomes &outcomes)
{
    std::vector<std::string> cols;
    for (const auto &o : outcomes)
        for (const auto &binding : o.point.params)
            if (std::find(cols.begin(), cols.end(), binding.first) ==
                cols.end())
                cols.push_back(binding.first);
    return cols;
}

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

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_REPORT_HH
