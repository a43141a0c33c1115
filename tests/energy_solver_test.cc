/**
 * @file
 * Property tests for the closed-form energy solvers that skip_ahead
 * mode leans on (DESIGN.md §15). Every property is of the form
 * "closed form == per-cycle scan, EXACTLY" — integer attojoule
 * arithmetic makes exact equality meaningful, and the per-cycle side
 * is the same code path the percycle reference loop executes, so a
 * failure here is a failure the differential system harness would
 * eventually hit too, minimized to one component.
 *
 * Covered corners: partition invariance across arbitrary split points
 * (including sample edges), the Vmax rail clamp mid-span, zero-power
 * samples, threshold targets that land exactly on a cycle vs. between
 * cycles, the charge-until timeout, and saturating leakage math.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "energy/attojoule.hh"
#include "energy/capacitor.hh"
#include "energy/harvester.hh"
#include "energy/power_trace.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace wlcache;
using namespace wlcache::energy;

namespace {

/** A harvester/capacitor pair in lock-step-comparable state. */
struct Rig
{
    Capacitor cap;
    Harvester harv;

    Rig(const PowerTrace &trace, double eff, double cap_f, double vmin,
        double vmax, double v0)
        : cap(cap_f, vmin, vmax), harv(trace, eff, false)
    {
        cap.setVoltage(v0);
    }

    bool sameStateAs(const Rig &o) const
    {
        return cap.storedAj() == o.cap.storedAj() &&
               harv.nowCycles() == o.harv.nowCycles() &&
               harv.totalHarvestedAj() == o.harv.totalHarvestedAj();
    }
};

PowerTrace
randomTrace(Rng &rng)
{
    const double period = rng.nextDouble(5.0e-6, 60.0e-6);
    const std::size_t n = 1 + rng.nextBelow(6);
    std::vector<double> samples;
    for (std::size_t i = 0; i < n; ++i) {
        // Include zero-power samples ~1/4 of the time.
        samples.push_back(rng.nextBelow(4) == 0
                              ? 0.0
                              : rng.nextDouble(1.0e-3, 40.0e-3));
    }
    return PowerTrace(period, samples);
}

} // namespace

// --- Partition invariance -------------------------------------------------

TEST(SolverProperty, AdvancePartitionInvariance)
{
    // advanceCycles(a + b) == advanceCycles(a); advanceCycles(b) for
    // arbitrary split points, including splits landing exactly on
    // sample edges and splits where the rail clamps mid-way.
    Rng rng(0xbeefu);
    for (unsigned iter = 0; iter < 200; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double eff = rng.nextDouble(0.4, 1.0);
        const double cap_f = rng.nextDouble(0.3e-6, 3.0e-6);
        const double v0 = rng.nextDouble(0.0, 3.4);
        Rig one(trace, eff, cap_f, 2.8, 3.5, v0);
        Rig two(trace, eff, cap_f, 2.8, 3.5, v0);

        const Cycle total = 1 + rng.nextBelow(400'000);
        Cycle split = rng.nextBelow(total + 1);
        if (rng.nextBelow(3) == 0) {
            // Land the split exactly on a sample edge.
            split = std::min<Cycle>(
                total, one.harv.periodCycles() *
                           (1 + rng.nextBelow(4)));
        }

        const Attojoules d1 =
            one.harv.advanceCycles(total, one.cap);
        const Attojoules d2a =
            two.harv.advanceCycles(split, two.cap);
        const Attojoules d2b =
            two.harv.advanceCycles(total - split, two.cap);
        EXPECT_EQ(d1, d2a + d2b) << "iter " << iter;
        EXPECT_TRUE(one.sameStateAs(two)) << "iter " << iter;
    }
}

TEST(SolverProperty, ClosedFormEqualsPerCycleScan)
{
    // The load-bearing lemma: one closed-form advance over n cycles
    // equals n single-cycle advances — through sample boundaries,
    // zero-power samples, and the Vmax rail. (Single-cycle advances
    // are exactly what percycle mode executes.)
    Rng rng(0xcafeu);
    for (unsigned iter = 0; iter < 40; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double eff = rng.nextDouble(0.4, 1.0);
        // Small capacitor so the rail clamp actually engages.
        const double cap_f = rng.nextDouble(0.05e-6, 0.5e-6);
        const double v0 = rng.nextDouble(2.8, 3.5);
        Rig closed(trace, eff, cap_f, 2.8, 3.5, v0);
        Rig scan(trace, eff, cap_f, 2.8, 3.5, v0);

        // Enough cycles to cross several sample edges.
        const Cycle n =
            closed.harv.periodCycles() * (2 + rng.nextBelow(3)) +
            rng.nextBelow(1000);
        const Attojoules dc = closed.harv.advanceCycles(n, closed.cap);
        Attojoules ds = 0;
        for (Cycle i = 0; i < n; ++i)
            ds += scan.harv.advanceCycles(1, scan.cap);
        EXPECT_EQ(dc, ds) << "iter " << iter;
        EXPECT_TRUE(closed.sameStateAs(scan)) << "iter " << iter;
    }
}

// --- Threshold crossing (chargeUntil) ------------------------------------

TEST(SolverProperty, ChargeUntilModesLandOnSameCycle)
{
    // The closed-form crossing solver must stop charging on EXACTLY
    // the cycle the per-cycle scan stops on — same elapsed cycles,
    // same stored energy, same harvest total — for randomized traces,
    // capacitances, start voltages, and targets (including targets at
    // the Vmax rail, where the clamp and the comparator interact).
    Rng rng(0xf007u);
    unsigned reached = 0;
    for (unsigned iter = 0; iter < 120; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double eff = rng.nextDouble(0.4, 1.0);
        const double cap_f = rng.nextDouble(0.3e-6, 2.0e-6);
        const double v0 = rng.nextDouble(0.0, 3.2);
        const double target = rng.nextBelow(5) == 0
                                  ? 3.5  // exactly the rail
                                  : rng.nextDouble(2.9, 3.5);
        Rig skip(trace, eff, cap_f, 2.8, 3.5, v0);
        Rig scan(trace, eff, cap_f, 2.8, 3.5, v0);

        const double ts = skip.harv.chargeUntil(
            skip.cap, target, 1.0, StepMode::SkipAhead);
        const double tp = scan.harv.chargeUntil(
            scan.cap, target, 1.0, StepMode::Percycle);
        EXPECT_EQ(ts, tp) << "iter " << iter;
        EXPECT_TRUE(skip.sameStateAs(scan)) << "iter " << iter;
        // Underpowered traces legitimately time out (still required
        // to agree, above). When the charge DID complete, both modes
        // reached the quantized target level.
        if (skip.cap.storedAj() >= skip.cap.energyAjForVoltage(target))
            ++reached;
    }
    // The sweep must actually exercise successful crossings, not just
    // time out everywhere.
    EXPECT_GE(reached, 60u);
}

TEST(SolverProperty, ChargeUntilOvershootBelowOneCycleDeposit)
{
    // The solver may not skip past the crossing: overshoot is bounded
    // by a single cycle's deposit at the crossing sample's rate.
    Rng rng(0x0dd5u);
    for (unsigned iter = 0; iter < 60; ++iter) {
        const PowerTrace trace = randomTrace(rng);
        const double cap_f = rng.nextDouble(0.3e-6, 2.0e-6);
        const double target = rng.nextDouble(2.9, 3.45);
        Rig rig(trace, 0.7, cap_f, 2.8, 3.5, 0.0);
        rig.harv.chargeUntil(rig.cap, target, 1.0,
                             StepMode::SkipAhead);

        const Attojoules target_aj =
            rig.cap.energyAjForVoltage(target);
        if (rig.cap.storedAj() < target_aj)
            continue;  // dead/underpowered trace timed out: fine.
        const Attojoules over = rig.cap.storedAj() - target_aj;
        // Bound: one cycle at the trace's maximum possible rate
        // (40 mW cap in randomTrace, efficiency 0.7).
        const Attojoules bound =
            toAttojoules(40.0e-3 * 0.7 / kCoreFreqHz);
        EXPECT_LE(over, bound) << "iter " << iter;
    }
}

TEST(SolverProperty, ChargeUntilTimeoutIdenticalAcrossModes)
{
    // An unreachable target times out at the same cycle in both modes.
    const PowerTrace weak(20.0e-6, { 1.0e-6, 0.0 });
    Rig skip(weak, 0.7, 1.0e-6, 2.8, 3.5, 0.0);
    Rig scan(weak, 0.7, 1.0e-6, 2.8, 3.5, 0.0);
    const double ts =
        skip.harv.chargeUntil(skip.cap, 3.4, 1.0e-3,
                              StepMode::SkipAhead);
    const double tp =
        scan.harv.chargeUntil(scan.cap, 3.4, 1.0e-3,
                              StepMode::Percycle);
    EXPECT_EQ(ts, tp);
    EXPECT_TRUE(skip.sameStateAs(scan));
    EXPECT_LT(skip.cap.storedAj(), skip.cap.energyAjForVoltage(3.4));
}

TEST(SolverProperty, ChargeUntilExactCycleLandingNoOvershoot)
{
    // Engineer a target that is hit EXACTLY on a cycle boundary: rate
    // divides the needed energy. The solver must stop precisely there
    // (zero overshoot), not one cycle later.
    const PowerTrace trace(1.0e-3, { 10.0e-3 });  // long sample
    Rig rig(trace, 1.0, 1.0e-6, 0.0, 100.0, 0.0);
    const Attojoules rate = rig.harv.currentRateAj();
    ASSERT_GT(rate, 0u);

    // Pick a voltage whose quantized level is a multiple of the rate.
    const Attojoules want_cycles = 12'345;
    const Attojoules target_aj = rate * want_cycles;
    const double v_target =
        std::sqrt(2.0 * toJoules(target_aj) / 1.0e-6);
    // Only assert when quantization round-trips exactly (it does for
    // these numbers; guard keeps the test honest about its premise).
    ASSERT_EQ(rig.cap.energyAjForVoltage(v_target), target_aj);

    rig.harv.chargeUntil(rig.cap, v_target, 1.0,
                         StepMode::SkipAhead);
    EXPECT_EQ(rig.cap.storedAj(), target_aj);
    EXPECT_EQ(rig.harv.nowCycles(), want_cycles);
}

// --- Rail / clamp arithmetic ----------------------------------------------

TEST(SolverProperty, WaterFillingLemmaAtTheRail)
{
    // Clamped absorption is associative: depositing n*rate in one add
    // equals n clamped per-cycle adds, even when the rail cuts the
    // deposit short. This is what lets skip_ahead batch whole samples.
    Rng rng(0x4a11u);
    for (unsigned iter = 0; iter < 100; ++iter) {
        const double cap_f = rng.nextDouble(0.01e-6, 0.2e-6);
        Capacitor one(cap_f, 2.8, 3.5);
        Capacitor many(cap_f, 2.8, 3.5);
        const double v0 = rng.nextDouble(3.3, 3.5);
        one.setVoltage(v0);
        many.setVoltage(v0);

        const Attojoules rate = 1 + rng.nextBelow(50'000);
        const std::uint64_t n = 1 + rng.nextBelow(100'000);
        const Attojoules d1 = one.addAj(scaleAttojoules(rate, n));
        Attojoules dn = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            dn += many.addAj(rate);
        EXPECT_EQ(d1, dn) << "iter " << iter;
        EXPECT_EQ(one.storedAj(), many.storedAj()) << "iter " << iter;
    }
}

TEST(SolverProperty, ScaleAttojoulesSaturates)
{
    EXPECT_EQ(scaleAttojoules(0, 1u << 30), 0u);
    EXPECT_EQ(scaleAttojoules(3, 5), 15u);
    // Saturation instead of wraparound.
    EXPECT_EQ(scaleAttojoules(kMaxAttojoules, 2), kMaxAttojoules);
    EXPECT_EQ(scaleAttojoules(1'000'000'000'000ull,
                              100'000'000'000ull),
              kMaxAttojoules);
}

TEST(SolverProperty, QuantizerEdges)
{
    EXPECT_EQ(toAttojoules(0.0), 0u);
    EXPECT_EQ(toAttojoules(-1.0), 0u);
    EXPECT_EQ(toAttojoules(1.0e-18), 1u);
    // Round-to-nearest at the attojoule grid.
    EXPECT_EQ(toAttojoules(1.49e-18), 1u);
    EXPECT_EQ(toAttojoules(1.51e-18), 2u);
    // Saturation above the representable range.
    EXPECT_EQ(toAttojoules(100.0), kMaxAttojoules);
    // toJoules is exact for the grid (1e18 is a power-of-two-scaled
    // exactly-representable double).
    EXPECT_EQ(toJoules(0), 0.0);
    EXPECT_DOUBLE_EQ(toJoules(kMaxAttojoules), 9.0);
}

namespace {

/**
 * The libm quantizer toAttojoules() replaced: same guards, then
 * std::llround (round half away from zero). The inline rounding must
 * reproduce it bit for bit.
 */
Attojoules
llroundAttojoules(double joules)
{
    if (!(joules > 0.0))
        return 0;
    const double aj = joules * kAttojoulesPerJoule;
    if (aj >= static_cast<double>(kMaxAttojoules))
        return kMaxAttojoules;
    return static_cast<Attojoules>(std::llround(aj));
}

/** Count of inputs where toAttojoules() and the reference disagree. */
struct QuantizerCheck
{
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;

    void operator()(double joules)
    {
        ++checked;
        if (toAttojoules(joules) != llroundAttojoules(joules)) {
            if (++mismatches <= 5)
                ADD_FAILURE() << "toAttojoules(" << joules << ") = "
                              << toAttojoules(joules) << ", llround "
                              << llroundAttojoules(joules);
        }
    }
};

} // namespace

TEST(SolverProperty, QuantizerMatchesLlroundOnTies)
{
    // Every tie k + 0.5 aJ and both neighbouring doubles, for
    // k < 2^20, entered in joules as the callers do.
    QuantizerCheck check;
    std::uint64_t exact_ties = 0;
    const double inf = std::numeric_limits<double>::infinity();
    for (std::uint64_t k = 0; k < (1u << 20); ++k) {
        const double tie = static_cast<double>(k) + 0.5;
        for (const double aj : { std::nextafter(tie, 0.0), tie,
                                 std::nextafter(tie, inf) }) {
            const double joules = aj / kAttojoulesPerJoule;
            check(joules);
            if (joules * kAttojoulesPerJoule == tie)
                ++exact_ties;
        }
    }
    EXPECT_EQ(check.mismatches, 0u) << "of " << check.checked;
    // The round trip through joules lands on an exact tie often
    // enough that the half-way branch is really exercised.
    EXPECT_GT(exact_ties, 100000u);
}

TEST(SolverProperty, QuantizerMatchesLlroundAtBinadeEdges)
{
    QuantizerCheck check;
    const double inf = std::numeric_limits<double>::infinity();
    // 2^40 ... 2^63 aJ: the 2^52 / 2^53 edges where the double
    // spacing reaches 1 and 2, and the top of the int64 range.
    for (int e = 40; e <= 63; ++e) {
        const double edge = std::ldexp(1.0, e);
        for (const double aj :
             { std::nextafter(edge, 0.0), edge, std::nextafter(edge, inf),
               edge - 0.5, edge + 0.5, edge - 1.5, edge + 1.5 }) {
            check(aj / kAttojoulesPerJoule);
        }
    }
    const double top = static_cast<double>(kMaxAttojoules);
    for (const double aj :
         { std::nextafter(top, 0.0), top, std::nextafter(top, inf) })
        check(aj / kAttojoulesPerJoule);
    EXPECT_EQ(check.mismatches, 0u) << "of " << check.checked;

    // Just under the ceiling rounds; at and above it saturates.
    EXPECT_LT(toAttojoules(std::nextafter(top, 0.0) / kAttojoulesPerJoule),
              kMaxAttojoules);
    EXPECT_EQ(toAttojoules(std::nextafter(top, inf) / kAttojoulesPerJoule),
              kMaxAttojoules);
}

TEST(SolverProperty, QuantizerSpecialValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    QuantizerCheck check;
    for (const double j : { 0.0, -0.0, -1.0, nan, inf, -inf, tiny })
        check(j);
    EXPECT_EQ(check.mismatches, 0u);
    EXPECT_EQ(toAttojoules(-0.0), 0u);
    EXPECT_EQ(toAttojoules(nan), 0u);
    EXPECT_EQ(toAttojoules(-inf), 0u);
    EXPECT_EQ(toAttojoules(inf), kMaxAttojoules);
    EXPECT_EQ(toAttojoules(tiny), 0u);
}

TEST(SolverProperty, QuantizerMatchesLlroundOnRandomBitPatterns)
{
    Rng rng(0x9a47u);
    QuantizerCheck check;
    // Arbitrary positive doubles: NaNs, infinities, subnormals and
    // every exponent.
    for (unsigned i = 0; i < 1000000; ++i)
        check(std::bit_cast<double>(rng.next() >> 1));
    // Positive doubles from 2^-62 J (~0.2 aJ) to 2^6 J (past the
    // saturation ceiling), where the rounding step does the work.
    for (unsigned i = 0; i < 1000000; ++i) {
        const std::uint64_t exp = 1023 - 62 + rng.nextBelow(68);
        const std::uint64_t mant = rng.next() & ((1ull << 52) - 1);
        check(std::bit_cast<double>(exp << 52 | mant));
    }
    EXPECT_EQ(check.mismatches, 0u) << "of " << check.checked;
}
