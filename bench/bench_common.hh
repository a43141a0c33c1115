/**
 * @file
 * Shared helpers for the paper's tables and figures (bench_paper):
 * the app list in the paper's presentation order, speedup-table
 * rendering with the paper's gmean(Media)/gmean(Mi)/gmean(Total)
 * columns, optional CSV output (set WLCACHE_BENCH_CSV=path prefix),
 * the workload scale, and declarative-sweep expansion.
 */

#ifndef WLCACHE_BENCH_BENCH_COMMON_HH
#define WLCACHE_BENCH_BENCH_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "explore/sweep_spec.hh"
#include "nvp/experiment.hh"

namespace wlcache {
namespace bench {

/** All 23 application names, paper order (Media then MiBench). */
std::vector<std::string> appNames();

/** True if the app belongs to the MediaBench-class suite. */
bool isMediaApp(const std::string &name);

/**
 * A per-app table of values for several labelled series (one series
 * per cache design or configuration), plus automatic geometric means
 * per suite, rendered like the paper's bar charts.
 */
class SpeedupTable
{
  public:
    explicit SpeedupTable(std::string title) : title_(std::move(title))
    {}

    /** Record a value for (series, app). */
    void set(const std::string &series, const std::string &app,
             double value);

    /** Declare series order (otherwise insertion order). */
    void seriesOrder(std::vector<std::string> order);

    /** gmean over the recorded apps of a series (suite filterable). */
    double gmean(const std::string &series,
                 const std::string &suite = "") const;

    /** Print the table with gmean(Media)/gmean(Mi)/gmean(Total). */
    void print() const;

    /** Also dump to <prefix>_<slug>.csv when WLCACHE_BENCH_CSV set. */
    void maybeWriteCsv(const std::string &slug) const;

  private:
    std::string title_;
    std::vector<std::string> series_;
    std::map<std::string, std::map<std::string, double>> values_;
};

/**
 * Scale factor for bench workloads (WLCACHE_BENCH_SCALE, default 1).
 * fatal() unless the variable, when set, is a whole number >= 1.
 */
unsigned benchScale();

/**
 * Expand a declarative sweep (explore axis-expansion API) into its
 * experiments, in expansion order — the cartesian product with the
 * first axis varying slowest — so a figure indexes results by axis
 * position instead of re-nesting the sweep loops. fatal() on an
 * invalid sweep (benches are compiled-in specs, so invalid means a
 * bug).
 */
std::vector<nvp::ExperimentSpec>
sweepSpecs(const explore::SweepSpec &spec);

} // namespace bench
} // namespace wlcache

#endif // WLCACHE_BENCH_BENCH_COMMON_HH
