/**
 * @file
 * Unit tests for the fleet scenario layer: deterministic per-node
 * trace derivation (same inputs bit-identical, different node ids
 * decorrelated, byte-exact save/load round trips), the nearest-rank
 * percentile against a hand-computed oracle, aggregation that is
 * independent of worker completion order with N=0/N=1 guarded,
 * fleet-spec parsing diagnostics, warm-cache fleet re-runs executing
 * zero jobs, and a fleet whose Pareto winner differs from the
 * single-node winner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "fleet/fleet.hh"
#include "fleet/fleet_spec.hh"
#include "fleet/report.hh"
#include "sim/logging.hh"

using namespace wlcache;
using namespace wlcache::fleet;

namespace {

FleetSpec
parseOk(const std::string &text)
{
    FleetSpec spec;
    std::string err;
    EXPECT_TRUE(parseFleetSpec(text, spec, &err)) << err;
    return spec;
}

/** Parse must fail; returns the diagnostic for assertions. */
std::string
parseErr(const std::string &text)
{
    FleetSpec spec;
    std::string err;
    EXPECT_FALSE(parseFleetSpec(text, spec, &err)) << text;
    EXPECT_FALSE(err.empty());
    return err;
}

/** A synthetic per-node result with just the aggregated fields set. */
NodeResult
makeNode(std::uint64_t node, std::uint64_t instructions,
         double seconds, std::uint64_t nvm_writes = 0,
         bool completed = true)
{
    NodeResult n;
    n.node = node;
    n.workload = "synthetic";
    n.result.instructions = instructions;
    n.result.total_seconds = seconds;
    n.result.nvm_writes = nvm_writes;
    n.result.completed = completed;
    return n;
}

std::vector<double>
aggregate(std::vector<NodeResult> nodes,
          const std::vector<std::string> &objectives,
          const FleetSpec &spec = {})
{
    FleetPointOutcome out;
    out.nodes = std::move(nodes);
    aggregatePoint(out, spec, objectives);
    return out.objectives;
}

std::string
saveBytes(const energy::PowerTrace &t)
{
    std::ostringstream os;
    t.save(os);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Per-node trace derivation.
// ---------------------------------------------------------------------

TEST(DeriveNodeTrace, DeterministicAndDecorrelated)
{
    const auto base =
        energy::makeTrace(energy::TraceKind::RfOffice);
    ASSERT_GT(base.numSamples(), 0u);

    // Same (base, node, jitter) derives bit-identical samples.
    const auto a = energy::deriveNodeTrace(base, 3, 0.25);
    const auto b = energy::deriveNodeTrace(base, 3, 0.25);
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.samplePeriod(), b.samplePeriod());

    // Different node ids decorrelate.
    const auto c = energy::deriveNodeTrace(base, 4, 0.25);
    EXPECT_NE(a.samples(), c.samples());

    // The gain is multiplicative on the shared envelope: a zero
    // sample stays zero for every node (same burst/idle structure).
    for (std::size_t i = 0; i < base.numSamples(); ++i) {
        if (base.samples()[i] == 0.0) {
            EXPECT_EQ(a.samples()[i], 0.0);
        }
    }

    // The base itself is never mutated.
    const auto base2 =
        energy::makeTrace(energy::TraceKind::RfOffice);
    EXPECT_EQ(base.samples(), base2.samples());
}

TEST(DeriveNodeTrace, JitterZeroReturnsBaseUnchanged)
{
    const auto base = energy::makeTrace(energy::TraceKind::RfHome);
    const auto derived = energy::deriveNodeTrace(base, 7, 0.0);
    EXPECT_EQ(base.samples(), derived.samples());
    EXPECT_EQ(base.samplePeriod(), derived.samplePeriod());
}

TEST(DeriveNodeTrace, SaveLoadRoundTripsByteIdentically)
{
    // save() must emit full precision: a derived trace written by
    // power_trace_tool and read back has to reproduce the identical
    // waveform (and therefore the identical run), byte for byte.
    const auto base =
        energy::makeTrace(energy::TraceKind::RfOffice);
    const auto derived = energy::deriveNodeTrace(base, 11, 0.4);

    const std::string first = saveBytes(derived);
    std::istringstream in(first);
    const auto reloaded = energy::PowerTrace::load(in);
    EXPECT_EQ(derived.samples(), reloaded.samples());
    EXPECT_EQ(derived.samplePeriod(), reloaded.samplePeriod());
    EXPECT_EQ(first, saveBytes(reloaded));
}

// ---------------------------------------------------------------------
// Nearest-rank percentile.
// ---------------------------------------------------------------------

TEST(Percentile, MatchesNearestRankOracle)
{
    // Oracle: 1-based rank ceil(pct/100 * N) of the ascending order.
    const std::vector<double> v = { 50, 10, 40, 20, 30 };
    EXPECT_EQ(percentileNearestRank(v, 25.0), 20.0);  // ceil(1.25)=2
    EXPECT_EQ(percentileNearestRank(v, 50.0), 30.0);  // ceil(2.5)=3
    EXPECT_EQ(percentileNearestRank(v, 60.0), 30.0);  // ceil(3.0)=3
    EXPECT_EQ(percentileNearestRank(v, 61.0), 40.0);  // ceil(3.05)=4
    EXPECT_EQ(percentileNearestRank(v, 90.0), 50.0);  // ceil(4.5)=5
    EXPECT_EQ(percentileNearestRank(v, 1.0), 10.0);   // ceil(0.05)=1
}

TEST(Percentile, GuardsEmptySingleAndEdges)
{
    EXPECT_EQ(percentileNearestRank({}, 50.0), 0.0);
    EXPECT_EQ(percentileNearestRank({ 7.0 }, 0.0), 7.0);
    EXPECT_EQ(percentileNearestRank({ 7.0 }, 50.0), 7.0);
    EXPECT_EQ(percentileNearestRank({ 7.0 }, 100.0), 7.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, -5.0), 1.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, 0.0), 1.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, 100.0), 3.0);
    EXPECT_EQ(percentileNearestRank({ 1, 2, 3 }, 250.0), 3.0);
}

// ---------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------

TEST(Aggregate, IndependentOfDeliveryOrder)
{
    const std::vector<std::string> objectives = {
        "fleet_p50_progress", "fleet_p99_progress",
        "fleet_mean_progress", "fleet_wear_total",
        "fleet_deadline_miss",
    };
    std::vector<NodeResult> sorted;
    for (std::uint64_t n = 0; n < 8; ++n)
        sorted.push_back(makeNode(n, (n + 1) * 1000, 1.0, n * 10,
                                  n % 3 != 0));

    // Every delivery order a sharded worker fleet could produce must
    // reduce to the identical objective vector.
    std::vector<NodeResult> shuffled = sorted;
    std::reverse(shuffled.begin(), shuffled.end());
    std::rotate(shuffled.begin(), shuffled.begin() + 3,
                shuffled.end());

    EXPECT_EQ(aggregate(sorted, objectives),
              aggregate(shuffled, objectives));

    FleetPointOutcome out;
    out.nodes = shuffled;
    aggregatePoint(out, FleetSpec{}, objectives);
    for (std::size_t i = 0; i + 1 < out.nodes.size(); ++i)
        EXPECT_LT(out.nodes[i].node, out.nodes[i + 1].node);
    EXPECT_EQ(out.total_instructions, 36000u);
    EXPECT_EQ(out.total_nvm_writes, 280u);
    EXPECT_EQ(out.completed_nodes, 5u);
}

TEST(Aggregate, GuardsEmptyAndSingleNodeFleets)
{
    std::vector<std::string> all;
    for (const auto &d : allFleetObjectives())
        all.push_back(d.name);

    // N=0: every objective must come out finite (0), never NaN/Inf.
    for (const double v : aggregate({}, all)) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_EQ(v, 0.0);
    }

    // N=1: every percentile collapses to the one node; a zero-second
    // run must not divide by zero.
    const auto one = aggregate({ makeNode(0, 5000, 2.0, 40) }, all);
    for (const double v : one)
        EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(one[0], -2500.0); // p50 == the single node's rate
    EXPECT_EQ(one[1], -2500.0); // p90
    EXPECT_EQ(one[2], -2500.0); // p99
    for (const double v : aggregate({ makeNode(0, 5000, 0.0) }, all))
        EXPECT_TRUE(std::isfinite(v));
}

TEST(Aggregate, DeadlineMissCountsCompletionAndBudget)
{
    const std::vector<std::string> obj = { "fleet_deadline_miss" };

    // deadline_cycles=0: completion alone is the deadline.
    std::vector<NodeResult> nodes = {
        makeNode(0, 100, 1.0, 0, true),
        makeNode(1, 100, 1.0, 0, false),
    };
    EXPECT_EQ(aggregate(nodes, obj)[0], 0.5);

    // A finite budget also times out slow completions.
    FleetSpec strict;
    strict.deadline_cycles = 1; // ~one cycle of wall clock
    nodes = {
        makeNode(0, 100, 1.0e-12, 0, true), // fast: meets
        makeNode(1, 100, 10.0, 0, true),    // slow: misses
        makeNode(2, 100, 10.0, 0, false),   // DNF: misses
    };
    const double miss = aggregate(nodes, obj, strict)[0];
    EXPECT_NEAR(miss, 2.0 / 3.0, 1e-12);
}

// ---------------------------------------------------------------------
// Fleet-spec parsing.
// ---------------------------------------------------------------------

TEST(FleetSpecParse, ParsesFullSpec)
{
    const auto spec = parseOk(R"({
        "name": "office-fleet",
        "nodes": 12,
        "jitter": 0.5,
        "deadline_cycles": 100000,
        "mix": [{"workload": "sha", "weight": 2},
                {"workload": "qsort"}],
        "objectives": ["fleet_p99_progress", "fleet_wear_total"],
        "sweep": {
            "name": "inner",
            "base": {"workload": "sha", "power": "trace2"},
            "axes": [{"param": "design", "values": ["wl", "wllog"]}]
        }
    })");
    EXPECT_EQ(spec.name, "office-fleet");
    EXPECT_EQ(spec.nodes, 12u);
    EXPECT_EQ(spec.jitter, 0.5);
    EXPECT_EQ(spec.deadline_cycles, 100000u);
    ASSERT_EQ(spec.mix.size(), 2u);
    EXPECT_EQ(spec.mix[0].weight, 2u);
    EXPECT_EQ(spec.sweep.axes.size(), 1u);

    // weight-2 sha + weight-1 qsort expands to a 3-long pattern.
    const auto pattern = spec.workloadPattern();
    const std::vector<std::string> want = { "sha", "sha", "qsort" };
    EXPECT_EQ(pattern, want);
}

TEST(FleetSpecParse, RejectsBadDocumentsWithDiagnostics)
{
    // Unknown top-level key.
    EXPECT_NE(parseErr(R"({"nodes": 2, "bogus": 1,
                           "sweep": {"base": {"workload": "sha"}}})")
                  .find("bogus"),
              std::string::npos);

    // Missing sweep / missing nodes.
    parseErr(R"({"nodes": 2})");
    parseErr(R"({"sweep": {"base": {"workload": "sha"}}})");

    // Unknown objective names the registry.
    const std::string err = parseErr(R"({
        "nodes": 2,
        "objectives": ["fleet_p12_progress"],
        "sweep": {"base": {"workload": "sha"}}
    })");
    EXPECT_NE(err.find("fleet_p12_progress"), std::string::npos);
    EXPECT_NE(err.find("fleet_p99_progress"), std::string::npos);

    // Unknown workload in the mix.
    EXPECT_NE(parseErr(R"({
                  "nodes": 2,
                  "mix": [{"workload": "no_such_app"}],
                  "sweep": {"base": {"workload": "sha"}}
              })")
                  .find("no_such_app"),
              std::string::npos);

    // A broken inner sweep surfaces the sweep parser's diagnostic.
    EXPECT_NE(parseErr(R"({
                  "nodes": 2,
                  "sweep": {"base": {"power": "tracer9"}}
              })")
                  .find("tracer9"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end fleet evaluation.
// ---------------------------------------------------------------------

namespace {

FleetSpec
smallFleet()
{
    return parseOk(R"({
        "name": "tiny",
        "nodes": 3,
        "jitter": 0.35,
        "mix": [{"workload": "sha", "weight": 2},
                {"workload": "qsort"}],
        "objectives": ["fleet_p99_progress", "fleet_wear_total"],
        "sweep": {
            "name": "tiny-sweep",
            "base": {"workload": "sha", "power": "trace2"},
            "axes": [{"param": "design", "values": ["wl", "wt"]}]
        }
    })");
}

bool
runSmall(const FleetSpec &spec, FleetReport &out,
         const std::string &cache_dir)
{
    FleetConfig cfg;
    cfg.spec = spec;
    cfg.jobs = 2;
    cfg.cache_dir = cache_dir;
    std::string err;
    const bool ok = runFleet(cfg, out, &err);
    EXPECT_TRUE(ok) << err;
    return ok;
}

std::string
renderCsv(const FleetReport &r)
{
    std::ostringstream os;
    writeFleetCsv(os, r);
    return os.str();
}

std::string
renderMd(const FleetReport &r)
{
    std::ostringstream os;
    writeFleetMarkdown(os, r);
    return os.str();
}

} // namespace

TEST(Fleet, WarmCacheExecutesNothing)
{
    setQuiet(true);
    // A stale cache from a previous test run would make the "cold"
    // leg warm; start from an empty directory every time.
    const std::string dir =
        ::testing::TempDir() + "wlcache_fleet_warm";
    std::filesystem::remove_all(dir);
    const FleetSpec spec = smallFleet();

    FleetReport cold, warm;
    ASSERT_TRUE(runSmall(spec, cold, dir));
    EXPECT_EQ(cold.total_runs, 6u); // 2 points x 3 nodes
    EXPECT_EQ(cold.executed, 6u);
    ASSERT_TRUE(runSmall(spec, warm, dir));
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cache_hits, 6u);

    // Cache-served results reproduce the reports byte for byte.
    EXPECT_EQ(renderCsv(cold), renderCsv(warm));
    EXPECT_EQ(renderMd(cold), renderMd(warm));
    std::filesystem::remove_all(dir);
}

TEST(Fleet, InvalidCacheGeometryFailsBeforeAnyRun)
{
    setQuiet(true);
    const FleetSpec spec = parseOk(R"({
        "name": "bad-geometry",
        "nodes": 2,
        "sweep": {
            "base": {"design": "wl", "workload": "sha",
                     "power": "trace1"},
            "axes": [{"param": "icache.size_bytes",
                      "values": [8192, 3000]}]
        }
    })");
    FleetConfig cfg;
    cfg.spec = spec;
    FleetReport report;
    std::string err;
    EXPECT_FALSE(runFleet(cfg, report, &err));
    EXPECT_NE(err.find("point 'icache.size_bytes=3000': invalid icache "
                       "geometry (size_bytes=3000, assoc=2, "
                       "line_bytes=64)"),
              std::string::npos)
        << err;
    EXPECT_EQ(report.executed, 0u);
    EXPECT_TRUE(report.outcomes.empty());
}

TEST(Fleet, NodesSeeDistinctTracesAndMixedWorkloads)
{
    setQuiet(true);
    const FleetSpec spec = smallFleet();
    FleetReport report;
    ASSERT_TRUE(runSmall(spec, report, ""));
    ASSERT_EQ(report.outcomes.size(), 2u);

    for (const auto &o : report.outcomes) {
        ASSERT_EQ(o.nodes.size(), 3u);
        // Mix assignment is round-robin over the weight pattern.
        EXPECT_EQ(o.nodes[0].workload, "sha");
        EXPECT_EQ(o.nodes[1].workload, "sha");
        EXPECT_EQ(o.nodes[2].workload, "qsort");
        // Distinct node ids derive distinct traces, so the two sha
        // nodes of one point must not collapse to one cache key.
        EXPECT_NE(o.nodes[0].run_key, o.nodes[1].run_key);
    }
}

TEST(Fleet, ParetoWinnerCanDifferFromSingleNodeWinner)
{
    // Synthetic two-point fleet. Point A is uniform: every node makes
    // steady progress. Point B has one star node and one starving
    // node (a config that over-fits the best-placed device).
    std::vector<NodeResult> a_nodes = {
        makeNode(0, 100000, 1.0, 50), // 100k insn/s
        makeNode(1, 95000, 1.0, 50),  //  95k insn/s
    };
    std::vector<NodeResult> b_nodes = {
        makeNode(0, 400000, 1.0, 50), // 400k insn/s
        makeNode(1, 5000, 1.0, 50),   //   5k insn/s
    };

    // Single-node evaluation (the paper's): pick the config whose
    // best node runs fastest — that's B.
    const double a_best = -nodeProgressRate(a_nodes[0].result);
    const double b_best = -nodeProgressRate(b_nodes[0].result);
    EXPECT_LT(b_best, a_best);

    // Fleet p99 (tail) evaluation: A's worst node beats B's.
    const std::vector<std::string> obj = { "fleet_p99_progress" };
    const double a_p99 = aggregate(a_nodes, obj)[0];
    const double b_p99 = aggregate(b_nodes, obj)[0];
    EXPECT_LT(a_p99, b_p99);

    // So the fleet Pareto winner is A while the single-node winner
    // is B: tail objectives change which design you would ship.
    EXPECT_NE(a_p99 < b_p99, a_best < b_best);
}
