#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "nvp/run_json.hh"
#include "runner/progress.hh"
#include "runner/result_cache.hh"
#include "runner/spec_key.hh"
#include "sim/logging.hh"
#include "util/fs.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace wlcache {
namespace runner {

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return util::envWholeNumber("WLCACHE_JOBS", hw >= 1 ? hw : 1);
}

Runner::Runner(RunnerConfig cfg) : cfg_(std::move(cfg)) {}

std::vector<nvp::RunResult>
Runner::runAll(const JobSet &set)
{
    const std::size_t n = set.size();
    unsigned jobs = cfg_.jobs ? cfg_.jobs : defaultJobs();
    if (jobs > n && n > 0)
        jobs = static_cast<unsigned>(n);

    stats_ = BatchStats{};
    stats_.total = n;
    stats_.jobs = jobs;
    stats_.records.resize(n);

    std::vector<nvp::RunResult> results(n);
    if (n == 0)
        return results;

    const ResultCache cache(cfg_.cache_dir);
    std::ostream *pout = nullptr;
    if (cfg_.progress)
        pout = cfg_.progress_out ? cfg_.progress_out : &std::cerr;
    ProgressReporter progress(n, pout);

    // Shared cursor: workers claim jobs in submission order. Results
    // land in per-job slots, so completion order never matters.
    std::atomic<std::size_t> next{ 0 };
    std::atomic<std::size_t> executed{ 0 };
    std::atomic<std::uint64_t> sim_cycles{ 0 };
    const auto batch_t0 = std::chrono::steady_clock::now();

    auto work = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            const Job &job = set[i];
            const auto t0 = std::chrono::steady_clock::now();

            JobRecord &rec = stats_.records[i];
            rec.id = job.id;
            rec.key = job.key;
            rec.t_start_s =
                std::chrono::duration<double>(t0 - batch_t0).count();
            rec.cached = cache.load(job.key, results[i]);
            // Miss: claim the key, then re-check — a concurrent
            // runner may have stored it while we waited.
            util::FileLock claim;
            if (!rec.cached && cache.enabled()) {
                claim = cache.claim(job.key);
                rec.cached = cache.load(job.key, results[i]);
            }
            if (!rec.cached) {
                nvp::RunOptions ro;
                if (job.resume && job.resume->valid())
                    ro.resume = job.resume.get();
                results[i] = nvp::runExperimentEx(job.spec, ro);
                cache.store(job.key, results[i]);
                executed.fetch_add(1, std::memory_order_relaxed);
                const std::uint64_t skipped =
                    ro.resume ? ro.resume->cycle : 0;
                sim_cycles.fetch_add(
                    results[i].on_cycles > skipped
                        ? results[i].on_cycles - skipped
                        : 0,
                    std::memory_order_relaxed);
            }
            claim.unlock();
            rec.completed = results[i].completed;
            const auto t1 = std::chrono::steady_clock::now();
            rec.wall_seconds =
                std::chrono::duration<double>(t1 - t0).count();
            rec.t_end_s =
                std::chrono::duration<double>(t1 - batch_t0).count();
            progress.jobDone(job.id, rec.cached, rec.wall_seconds);
        }
    };

    if (jobs <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(work);
        for (auto &t : pool)
            t.join();
    }

    if (pout)
        progress.finish();

    stats_.cache_hits = progress.cacheHits();
    stats_.executed = executed.load();
    stats_.simulated_cycles = sim_cycles.load();
    stats_.wall_seconds = progress.elapsedSeconds();

    if (!cfg_.manifest_path.empty())
        writeManifest(set);
    return results;
}

void
Runner::writeManifest(const JobSet &set) const
{
    std::ostringstream out;

    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.6f", stats_.wall_seconds);
    out << "{\n"
        << "  \"schema\": " << kResultSchemaVersion << ",\n"
        << "  \"record_version\": " << nvp::kRunRecordVersion << ",\n"
        << "  \"jobs\": " << stats_.jobs << ",\n"
        << "  \"total\": " << stats_.total << ",\n"
        << "  \"cache_hits\": " << stats_.cache_hits << ",\n"
        << "  \"executed\": " << stats_.executed << ",\n"
        << "  \"cache_dir\": \"" << util::jsonEscape(cfg_.cache_dir)
        << "\",\n"
        << "  \"wall_seconds\": " << wall << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < stats_.records.size(); ++i) {
        const JobRecord &rec = stats_.records[i];
        const Job &job = set[i];
        char ms[32], ts[32], te[32];
        std::snprintf(ms, sizeof(ms), "%.3f",
                      1e3 * rec.wall_seconds);
        std::snprintf(ts, sizeof(ts), "%.6f", rec.t_start_s);
        std::snprintf(te, sizeof(te), "%.6f", rec.t_end_s);
        out << "    {\"id\": \"" << util::jsonEscape(rec.id)
            << "\", \"key\": \"" << rec.key << "\", \"workload\": \""
            << util::jsonEscape(job.spec.workload) << "\", \"design\": \""
            << nvp::designKindName(job.spec.design)
            << "\", \"cached\": " << (rec.cached ? "true" : "false")
            << ", \"completed\": "
            << (rec.completed ? "true" : "false")
            << ", \"wall_ms\": " << ms
            << ", \"t_start\": " << ts
            << ", \"t_end\": " << te << '}'
            << (i + 1 < stats_.records.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";

    // Serialize concurrent batches (parallel CLIs) writing the same
    // manifest path, and publish atomically so a reader never sees a
    // torn file.
    const std::filesystem::path p(cfg_.manifest_path);
    const std::string dir =
        p.has_parent_path() ? p.parent_path().string() : ".";
    util::FileLock lock;
    lock.lockExclusive(cfg_.manifest_path + ".lock");
    std::string err;
    if (!util::writeFileAtomic(dir, cfg_.manifest_path, out.str(),
                               &err))
        warn("cannot write manifest '%s': %s",
             cfg_.manifest_path.c_str(), err.c_str());
}

} // namespace runner
} // namespace wlcache
