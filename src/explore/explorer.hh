/**
 * @file
 * The exploration engine: expand a SweepSpec into concrete design
 * points, evaluate them through the parallel runner (every run lands
 * in the content-addressed result cache, so explorations are
 * resumable and warm re-runs execute nothing), and extract the
 * Pareto frontier over the chosen objectives. The search is
 * exhaustive: every expanded point runs once, at its own scale.
 */

#ifndef WLCACHE_EXPLORE_EXPLORER_HH
#define WLCACHE_EXPLORE_EXPLORER_HH

#include <cstddef>
#include <string>
#include <vector>

#include <iosfwd>

#include "explore/sweep_spec.hh"
#include "nvp/system.hh"
#include "runner/runner.hh"

namespace wlcache {
namespace explore {

/** Everything one exploration needs beyond the sweep itself. */
struct ExploreConfig
{
    SweepSpec sweep;

    /**
     * Objective names (see objectives.hh). Overrides the sweep's own
     * list when non-empty; the engine falls back to the sweep's, and
     * then to {"time", "nvm_writes"}.
     */
    std::vector<std::string> objectives;

    unsigned jobs = 0;          //!< Worker threads (0 = default).
    std::string cache_dir;      //!< Result cache; empty disables.
    bool progress = false;      //!< Per-job progress lines.
    /** Progress sink; null falls back to std::cerr. */
    std::ostream *progress_out = nullptr;
};

/** One evaluated point. */
struct PointOutcome
{
    DesignPoint point;
    nvp::RunResult result;
    /** Objective values, in report objective order (all minimize). */
    std::vector<double> objectives;
    /**
     * Content-addressed key of the point's run — the name of the
     * run-record JSON in the result cache, which carries the full
     * stats tree and per-interval rollups for this point.
     */
    std::string run_key;
    bool on_frontier = false;
};

/** Everything an exploration learned. */
struct ExploreReport
{
    std::string name;
    std::vector<std::string> objective_names;

    /** Every expanded point, in expansion order. */
    std::vector<PointOutcome> outcomes;
    /**
     * Frontier as indices into @c outcomes, ordered by objective
     * vector with point ids breaking ties (deterministic).
     */
    std::vector<std::size_t> frontier;

    // --- Run economics ---
    std::size_t cache_hits = 0;   //!< Served from the result cache.
    std::size_t executed = 0;     //!< Actual simulator executions.
};

/**
 * Run one exploration.
 * @return true on success; false fills @p err (bad objective name,
 *         expansion failure).
 */
bool runExploration(const ExploreConfig &cfg, ExploreReport &out,
                    std::string *err = nullptr);

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_EXPLORER_HH
