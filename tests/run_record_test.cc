/**
 * @file
 * The run record's one field list, seen from its four walkers: the
 * JSON writer, the strict JSON reader and the snapshot save/restore.
 * Every field round-trips through both forms, out-of-range integers
 * are refused, and mutated records from outside (result-cache files)
 * either read or fail with a message, never crash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "nvp/experiment.hh"
#include "nvp/run_json.hh"
#include "sim/snapshot.hh"

using namespace wlcache;

namespace {

/** Every RunResult and IntervalRollup field set to a distinct,
 *  non-default value. */
nvp::RunResult
filledResult()
{
    nvp::RunResult r;
    r.workload = "qsort \"x\"\t";
    r.design = nvp::DesignKind::Replay;
    r.completed = true;
    r.on_cycles = 101;
    r.off_seconds = 0.125;
    r.total_seconds = 1.0 / 3.0;
    r.instructions = 102;
    r.trace_events = 103;
    r.replayed_events = 104;
    r.outages = 105;
    r.reserve_violations = 106;
    for (std::size_t c = 0; c < energy::EnergyMeter::kNumCategories; ++c)
        r.meter.addAj(static_cast<energy::EnergyCategory>(c),
                      1000003 * (c + 1));
    r.nvm_writes = 107;
    r.nvm_bytes_written = 108;
    r.nvm_reads = 109;
    r.nvm_bank_conflicts = 110;
    r.nvm_queue_stall_cycles = 111;
    r.nvm_turnaround_stall_cycles = 112;
    r.nvm_wear_max = 113;
    r.nvm_wear_lines_touched = 114;
    r.nvm_lifetime_headroom = 18446744073709551615ull;
    r.nvm_write_p99_latency = 115.5;
    r.nvm_row_hits = 116;
    r.nvm_row_misses = 117;
    r.log_appended_records = 118;
    r.log_appended_bytes = 119;
    r.log_replays = 120;
    r.log_replayed_records = 121;
    r.log_replayed_bytes = 122;
    r.log_compactions = 123;
    r.log_compacted_lines = 124;
    r.log_compacted_bytes = 125;
    r.log_live_lines = 126;
    r.dcache_load_hit_rate = 0.75;
    r.dcache_store_hit_rate = 0.625;
    r.store_stall_cycles = 127;
    r.reconfigurations = 128;
    r.maxline_min_seen = 129;
    r.maxline_max_seen = 4294967295u;
    r.prediction_accuracy = 0.25;
    r.avg_dirty_at_ckpt = 3.5;
    r.writebacks_per_on_period = 1e-7;
    r.dyn_maxline_raises = 130;
    r.consistency_checks = 131;
    r.consistency_violations = 132;
    r.load_value_mismatches = 133;
    r.final_state_correct = true;
    r.forced_outages = 134;
    r.register_restore_mismatches = 135;
    r.divergence = true;
    r.has_first_divergence = true;
    r.first_divergence_kind = "register";
    r.first_divergence_addr = 0xdeadbeef;
    r.first_divergence_cycle = 136;
    r.first_divergence_outage = 137;
    r.final_state_digest = "0123456789abcdef0123456789abcdef";
    r.stats_json = R"({"sys":{"hits":{"value":7,"desc":"a \"b\""}}})";
    for (std::uint64_t i = 0; i < 3; ++i) {
        telemetry::IntervalRollup iv;
        iv.index = i + 1;
        iv.start_cycle = 200 + i;
        iv.end_cycle = 300 + i;
        iv.instructions = 400 + i;
        iv.nvm_writes = 500 + i;
        iv.cleans = 600 + i;
        iv.dirty_high_water = 700 + static_cast<unsigned>(i);
        iv.checkpoint_j = 1.5e-9 * static_cast<double>(i + 1);
        iv.harvested_j = 2.25e-6 * static_cast<double>(i + 1);
        r.intervals.push_back(iv);
    }
    r.intervals_dropped = 138;
    return r;
}

std::string
toJson(const nvp::RunResult &r)
{
    std::ostringstream os;
    nvp::writeRunResultJson(os, r);
    return os.str();
}

bool
fromJson(const std::string &json, nvp::RunResult &out,
         std::string *err = nullptr)
{
    std::istringstream is(json);
    return nvp::readRunResultJson(is, out, err);
}

std::vector<std::uint8_t>
toSnapshot(const nvp::RunResult &r)
{
    SnapshotWriter w;
    nvp::saveRunResult(w, r);
    return w.take();
}

/** @p json with the first occurrence of @p from replaced by @p to. */
std::string
replaced(std::string json, const std::string &from, const std::string &to)
{
    const std::size_t at = json.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        json.replace(at, from.size(), to);
    return json;
}

} // namespace

TEST(RunRecord, EveryFieldRoundTrips)
{
    const nvp::RunResult r = filledResult();

    // JSON: write -> read -> write is byte-identical.
    const std::string json = toJson(r);
    nvp::RunResult back;
    std::string err;
    ASSERT_TRUE(fromJson(json, back, &err)) << err;
    EXPECT_TRUE(back == r);
    EXPECT_EQ(toJson(back), json);

    // Snapshot: save -> restore -> save is byte-identical, and the
    // restore consumes exactly the section.
    const std::vector<std::uint8_t> snap = toSnapshot(r);
    SnapshotReader rd(snap);
    nvp::RunResult restored;
    restored.intervals.resize(5); // restore replaces, not appends
    nvp::restoreRunResult(rd, restored);
    EXPECT_TRUE(rd.atEnd());
    EXPECT_TRUE(restored == r);
    EXPECT_EQ(toSnapshot(restored), snap);

    // No intervals: the array is written empty on one line.
    nvp::RunResult none = r;
    none.intervals.clear();
    const std::string empty = toJson(none);
    EXPECT_NE(empty.find("\"intervals\": [],\n"), std::string::npos);
    ASSERT_TRUE(fromJson(empty, back, &err)) << err;
    EXPECT_TRUE(back == none);
}

/** Integers from outside must fit the field: each bad value makes the
 *  record unreadable instead of wrapping or hitting an undefined cast. */
TEST(RunRecord, RejectsOutOfRangeIntegers)
{
    const std::string json = toJson(filledResult());
    nvp::RunResult back;
    std::string err;

    for (const char *bad : { "-1", "1.5", "1e30", "18446744073709551616" }) {
        const std::string rec =
            replaced(json, "\"on_cycles\": 101", "\"on_cycles\": " +
                                                   std::string(bad));
        EXPECT_FALSE(fromJson(rec, back, &err)) << bad;
        EXPECT_NE(err.find("'on_cycles'"), std::string::npos) << err;
    }

    // Unsigned fields hold 32 bits: 2^32 is refused, 2^32 - 1 reads.
    EXPECT_FALSE(fromJson(replaced(json, "\"reconfigurations\": 128",
                                   "\"reconfigurations\": 4294967296"),
                          back, &err));
    EXPECT_NE(err.find("'reconfigurations'"), std::string::npos) << err;
    EXPECT_FALSE(fromJson(replaced(json, "\"dirty_high_water\":700",
                                   "\"dirty_high_water\":4294967296"),
                          back, &err));
    EXPECT_NE(err.find("'dirty_high_water'"), std::string::npos) << err;
    ASSERT_TRUE(fromJson(replaced(json, "\"reconfigurations\": 128",
                                  "\"reconfigurations\": 4294967295"),
                         back, &err))
        << err;
    EXPECT_EQ(back.reconfigurations, 4294967295u);

    // A negative energy would trip the meter's own assertion.
    EXPECT_FALSE(fromJson(replaced(json, "\"compute\": ", "\"compute\": -"),
                          back, &err));
    EXPECT_NE(err.find("'compute'"), std::string::npos) << err;

    // Missing keys keep today's diagnostics.
    fromJson(replaced(json, "\"nvm_device\"", "\"nvm_devices\""), back,
             &err);
    EXPECT_EQ(err, "missing object 'nvm_device'");
    fromJson(replaced(json, "\"row_hits\"", "\"row_hit\""), back, &err);
    EXPECT_EQ(err, "missing number 'row_hits'");
    fromJson(replaced(json, "\"ReplayCache\"", "\"Nope\""), back, &err);
    EXPECT_EQ(err.rfind("unknown design 'Nope' (valid: ", 0), 0u) << err;
}

/**
 * Deterministic mutation fuzz of a real record through the strict
 * reader (result-cache files are bytes from outside): byte flips,
 * truncations and insertions. Each mutant either reads, and then
 * re-serializes to a fixed point, or fails with a message.
 */
TEST(RunRecord, MutatedRecordsReadOrFail)
{
    nvp::ExperimentSpec spec;
    spec.design = nvp::DesignKind::WL;
    spec.workload = "sha";
    spec.power = energy::TraceKind::RfHome;
    const std::string json = toJson(nvp::runExperiment(spec));

    static const char kInsert[] = "0123456789-.eE+\"\\{}[],: \x01xtfn";
    std::mt19937_64 rng(20231017);
    std::size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string m = json;
        const std::size_t at = rng() % m.size();
        switch (i % 3) {
          case 0:
            m[at] = static_cast<char>(m[at] ^ (1u << (rng() % 8)));
            break;
          case 1:
            m.resize(at);
            break;
          case 2:
            m.insert(at, 1, kInsert[rng() % (sizeof(kInsert) - 1)]);
            break;
        }
        nvp::RunResult back;
        std::string err;
        if (!fromJson(m, back, &err)) {
            EXPECT_FALSE(err.empty()) << "mutant " << i;
            ++rejected;
            continue;
        }
        ++accepted;
        const std::string once = toJson(back);
        nvp::RunResult again;
        ASSERT_TRUE(fromJson(once, again, &err)) << "mutant " << i << err;
        EXPECT_EQ(toJson(again), once) << "mutant " << i;
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}
