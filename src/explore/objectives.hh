/**
 * @file
 * The one objective registry for design-space exploration and fleets:
 * named scalar figures of merit, each a per-run extractor plus a
 * reducer over a point's node results (a plain sweep point has one
 * node, and every reducer returns a lone value bit for bit). The
 * Pareto machinery minimizes internally; maximizing objectives are
 * negated after reduction so callers never branch on direction.
 */

#ifndef WLCACHE_EXPLORE_OBJECTIVES_HH
#define WLCACHE_EXPLORE_OBJECTIVES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "explore/sweep_spec.hh"
#include "nvp/experiment.hh"
#include "nvp/system.hh"

namespace wlcache {
namespace explore {

/** One node's finished run within a design point. */
struct NodeResult
{
    std::uint64_t node = 0;       //!< Fleet node id (trace seed).
    nvp::ExperimentSpec spec;     //!< What the node ran.
    std::string run_key;          //!< Content-addressed run key.
    nvp::RunResult result;
};

/** One named figure of merit. */
struct ObjectiveDef
{
    /** How a point's per-node values become one number. */
    enum class Reduce
    {
        Sum,
        Max,
        Mean,
        Percentile, //!< Nearest rank @c pct (see percentileNearestRank).
    };

    const char *name;
    const char *help;
    /**
     * One run's raw value. @p sweep supplies document-wide inputs
     * (the fleet deadline); the node's spec identifies the workload
     * and configuration it ran with.
     */
    double (*run)(const NodeResult &n, const SweepSpec &sweep);
    Reduce reduce;
    /** Percentile rank for Reduce::Percentile, else unused. */
    double pct;
    /** A maximizing objective: the reduced value is negated. */
    bool negate;
};

/** Every registered objective. */
const std::vector<ObjectiveDef> &allObjectives();

/** Lookup by name; null when unknown. */
const ObjectiveDef *findObjective(const std::string &name);

/**
 * Comma-separated list of every registered objective name, for
 * "unknown objective" error messages.
 */
std::string objectiveNameList();

/**
 * Evaluate @p names over one point's @p nodes, in order. Every
 * objective minimizes, so smaller is better across the board. No
 * nodes reduce to 0, and a non-finite value is clamped to 0 so it
 * never reaches a report. Asserts each name is registered (validate
 * with findObjective first at the API boundary).
 */
std::vector<double> evalObjectives(const std::vector<std::string> &names,
                                   const std::vector<NodeResult> &nodes,
                                   const SweepSpec &sweep);

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

/**
 * The JIT-checkpoint energy reserve a configuration sets aside
 * between Vbackup and Vmin (joules). For WL-Cache this follows the
 * maxline-indexed threshold schedule of §5.5; for every other design
 * it is the static platform Vbackup. The quantity WL-Cache's maxline
 * bound trades against write-back efficiency — the paper's central
 * axis.
 */
double checkpointReserveJ(const nvp::SystemConfig &cfg);

/**
 * First-order silicon cost of a configuration (mm^2 at 90 nm from
 * CACTI-lite): D- and I-cache arrays plus, for WL-Cache, the
 * DirtyQueue.
 */
double hardwareAreaMm2(const nvp::SystemConfig &cfg);

} // namespace explore
} // namespace wlcache

#endif // WLCACHE_EXPLORE_OBJECTIVES_HH
