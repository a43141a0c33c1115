/**
 * @file
 * Parallel experiment runner. Executes a JobSet on a fixed-size
 * worker-thread pool, serving jobs from the content-addressed result
 * cache when possible, and returns results in submission order —
 * a parallel batch is guaranteed to produce byte-identical output to
 * a serial one, because every job is an independent deterministic
 * simulation and the pool only changes *when* each one runs.
 * Optionally reports progress and writes a per-run manifest JSON for
 * observability.
 */

#ifndef WLCACHE_RUNNER_RUNNER_HH
#define WLCACHE_RUNNER_RUNNER_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "runner/job_set.hh"

namespace wlcache {
namespace runner {

/** Batch execution knobs. */
struct RunnerConfig
{
    /**
     * Worker threads; 0 means defaultJobs() (the WLCACHE_JOBS
     * environment variable, else hardware_concurrency). 1 executes
     * inline on the calling thread.
     */
    unsigned jobs = 0;

    /**
     * Result-cache directory; empty disables caching. When set, a
     * cache miss is executed under the key's claim lock, so identical
     * jobs run by concurrent runners (threads or processes) sharing
     * the directory execute once (see ResultCache).
     */
    std::string cache_dir;

    /** Emit per-job progress lines to @c progress_out (stderr). */
    bool progress = false;
    /** Progress sink; null falls back to std::cerr. */
    std::ostream *progress_out = nullptr;

    /** When non-empty, write a batch manifest JSON here. */
    std::string manifest_path;
};

/** Per-job outcome bookkeeping (manifest + tests). */
struct JobRecord
{
    std::string id;
    std::string key;
    bool cached = false;
    bool completed = false;
    double wall_seconds = 0.0;
    /**
     * Wall-clock span of this job relative to batch start, seconds.
     * Spans from concurrent workers overlap; plotting them yields a
     * utilization timeline of the batch (manifest "t_start"/"t_end").
     */
    double t_start_s = 0.0;
    double t_end_s = 0.0;
};

/** Batch-level outcome bookkeeping. */
struct BatchStats
{
    std::size_t total = 0;
    std::size_t cache_hits = 0;
    std::size_t executed = 0;
    unsigned jobs = 0;             //!< Worker threads actually used.
    double wall_seconds = 0.0;
    /**
     * On-cycles actually simulated by executed jobs: each job's
     * on_cycles minus the fast-forwarded prefix of its resume
     * snapshot. Cache hits contribute nothing. This is the economics
     * of snapshot resume — the acceptance metric for campaigns.
     */
    std::uint64_t simulated_cycles = 0;
    std::vector<JobRecord> records; //!< Submission order.
};

/**
 * WLCACHE_JOBS env override, else std::thread::hardware_concurrency.
 * fatal() when WLCACHE_JOBS is set but not a whole number >= 1.
 */
unsigned defaultJobs();

class Runner
{
  public:
    explicit Runner(RunnerConfig cfg = {});

    /**
     * Run every job in @p set to completion.
     * @return results indexed by submission order.
     */
    std::vector<nvp::RunResult> runAll(const JobSet &set);

    /** Statistics of the most recent runAll(). */
    const BatchStats &stats() const { return stats_; }

  private:
    void writeManifest(const JobSet &set) const;

    RunnerConfig cfg_;
    BatchStats stats_;
};

} // namespace runner
} // namespace wlcache

#endif // WLCACHE_RUNNER_RUNNER_HH
