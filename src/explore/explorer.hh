/**
 * @file
 * The exploration engine: expand a SweepSpec into concrete design
 * points, evaluate them through the parallel runner (every run lands
 * in the content-addressed result cache, so explorations are
 * resumable and warm re-runs execute nothing), and extract the
 * Pareto frontier over the chosen objectives. The search is
 * exhaustive: every expanded point runs once, at its own scale. A
 * fleet (a sweep with `nodes`) runs each point once per node, with
 * the node-derived power trace and mix-assigned workload, and
 * reduces the per-node results in node-id order, so the aggregate
 * is independent of worker completion order.
 */

#ifndef WLCACHE_EXPLORE_EXPLORER_HH
#define WLCACHE_EXPLORE_EXPLORER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "explore/objectives.hh"
#include "explore/sweep_spec.hh"

namespace wlcache {
namespace explore {

/** Everything one exploration needs beyond the sweep itself. */
struct ExploreConfig
{
    SweepSpec sweep;

    /**
     * Objective names (see objectives.hh). Overrides the sweep's own
     * list when non-empty; the engine falls back to the sweep's, and
     * then to {"time", "nvm_writes"} ({"fleet_p99_progress",
     * "fleet_wear_total"} for a fleet).
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
    /**
     * Per-node results in node-id order; a plain sweep point has
     * exactly one. Each run key names the run-record JSON in the
     * result cache, which carries the full stats tree and
     * per-interval rollups for that run.
     */
    std::vector<NodeResult> nodes;
    /** Objective values, in report objective order (all minimize). */
    std::vector<double> objectives;
    bool on_frontier = false;

    // --- Totals over the point's nodes ---
    std::uint64_t total_instructions = 0;
    std::uint64_t total_nvm_writes = 0;
    std::uint64_t total_outages = 0;
    std::size_t completed_nodes = 0;
};

/**
 * Reduce @p out.nodes into objectives and totals. Sorts the nodes by
 * id first, so the result is identical no matter what order they
 * were delivered in. @p objective_names must all be registered.
 */
void aggregatePoint(PointOutcome &out, const SweepSpec &sweep,
                    const std::vector<std::string> &objective_names);

/** Everything an exploration learned. */
struct ExploreReport
{
    std::string name;
    /** Fleet size (0 for a plain sweep) and per-node power jitter. */
    unsigned nodes = 0;
    double jitter = 0.0;
    std::vector<std::string> objective_names;

    /** Every expanded point, in expansion order. */
    std::vector<PointOutcome> outcomes;
    /**
     * Frontier as indices into @c outcomes, ordered by objective
     * vector with point ids breaking ties (deterministic).
     */
    std::vector<std::size_t> frontier;

    // --- Run economics ---
    std::size_t total_runs = 0;   //!< Runs submitted (points x nodes).
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
