/**
 * @file
 * Fleet evaluation engine: fan every design point of a fleet spec out
 * as N ordinary content-addressed single-node jobs (one per node,
 * each with its node-derived power trace and mix-assigned workload),
 * then reduce the per-node results into fleet objectives — forward-
 * progress percentiles, fleet-total and worst-line NVM wear, and the
 * fraction of nodes meeting a cycle deadline. The reduction sorts
 * nodes by id first, so the aggregate is independent of worker
 * completion order, and every percentile is the exact nearest-rank
 * statistic with N=0/N=1 guarded (no NaN/Inf ever reaches a report).
 */

#ifndef WLCACHE_FLEET_FLEET_HH
#define WLCACHE_FLEET_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "explore/sweep_spec.hh"
#include "fleet/fleet_spec.hh"
#include "nvp/system.hh"
#include "runner/runner.hh"

namespace wlcache {
namespace fleet {

/** One node's finished run within a design point. */
struct NodeResult
{
    std::uint64_t node = 0;       //!< Fleet node id (trace seed).
    std::string workload;         //!< Mix-assigned workload.
    std::string run_key;          //!< Content-addressed run key.
    nvp::RunResult result;
};

/** One named fleet figure of merit (all minimize; maximizing
 *  objectives are negated at extraction, like explore's). */
struct FleetObjectiveDef
{
    const char *name;
    const char *help;
    /** @p nodes is sorted by node id before this is called. */
    double (*eval)(const std::vector<NodeResult> &nodes,
                   const FleetSpec &spec);
};

/** Every registered fleet objective. */
const std::vector<FleetObjectiveDef> &allFleetObjectives();

/** Lookup by name; null when unknown. */
const FleetObjectiveDef *findFleetObjective(const std::string &name);

/** Comma-separated registered names, for error messages. */
std::string fleetObjectiveNameList();

/**
 * Exact nearest-rank percentile: the smallest value v in @p values
 * such that at least @p pct percent of them are <= v, i.e. the
 * (1-based) rank ceil(pct/100 * N) of the ascending order. Takes the
 * vector by value and sorts internally, so callers never pre-sort.
 * Guards: N=0 returns 0; N=1 returns the single value for any pct;
 * pct <= 0 returns the minimum, pct >= 100 the maximum.
 */
double percentileNearestRank(std::vector<double> values, double pct);

/**
 * A node's forward-progress rate: retired instructions per second of
 * total wall-clock (on + recharge). 0 when no time elapsed.
 */
double nodeProgressRate(const nvp::RunResult &r);

/** One design point evaluated across the whole fleet. */
struct FleetPointOutcome
{
    explore::DesignPoint point;
    /** Per-node results, sorted by node id (aggregatePoint sorts). */
    std::vector<NodeResult> nodes;
    /** Objective values in report objective order (all minimize). */
    std::vector<double> objectives;
    bool on_frontier = false;

    // --- Fleet-total telemetry rollup (summed over nodes) ---
    std::uint64_t total_instructions = 0;
    std::uint64_t total_nvm_writes = 0;
    std::uint64_t total_outages = 0;
    double total_harvested_j = 0.0;
    std::size_t completed_nodes = 0;
};

/**
 * Reduce @p out.nodes into objectives and fleet totals. Sorts the
 * nodes by id first, so the result is identical no matter what order
 * the runner (or a sharded worker fleet) delivered them in.
 * @p objective_names must all be registered (validated upstream).
 */
void aggregatePoint(FleetPointOutcome &out, const FleetSpec &spec,
                    const std::vector<std::string> &objective_names);

/** Everything one fleet evaluation learned. */
struct FleetReport
{
    std::string name;
    unsigned nodes = 1;
    double jitter = 0.0;
    std::vector<std::string> objective_names;

    /** Evaluated points in sweep-expansion order. */
    std::vector<FleetPointOutcome> outcomes;
    /** Frontier indices into @c outcomes (deterministic order). */
    std::vector<std::size_t> frontier;

    // --- Run economics (summary only; never in csv/markdown) ---
    std::size_t total_runs = 0;
    std::size_t cache_hits = 0;
    std::size_t executed = 0;
};

/** Everything one fleet evaluation needs beyond the spec. */
struct FleetConfig
{
    FleetSpec spec;
    unsigned jobs = 0;          //!< Worker threads (0 = default).
    std::string cache_dir;      //!< Result cache; empty disables.
    bool progress = false;      //!< Per-job progress lines.
    std::ostream *progress_out = nullptr;
};

/**
 * Run one fleet evaluation: expand the sweep, fan out nodes x points
 * through the runner, aggregate, and extract the Pareto frontier
 * over the fleet objectives (default when the spec names none:
 * fleet_p99_progress + fleet_wear_total).
 * @return true on success; false fills @p err.
 */
bool runFleet(const FleetConfig &cfg, FleetReport &out,
              std::string *err = nullptr);

} // namespace fleet
} // namespace wlcache

#endif // WLCACHE_FLEET_FLEET_HH
