/** @file Unit tests for energy: capacitor, power traces, harvester,
 *  energy meter. */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "energy/capacitor.hh"
#include "energy/energy_meter.hh"
#include "energy/harvester.hh"
#include "energy/power_trace.hh"
#include "sim/snapshot.hh"
#include "util/strings.hh"

using namespace wlcache;
using namespace wlcache::energy;

namespace {

Capacitor
paperCap()
{
    return Capacitor(1.0e-6, 2.8, 3.5);
}

} // namespace

TEST(Capacitor, StartsAtVmin)
{
    auto c = paperCap();
    EXPECT_NEAR(c.voltage(), 2.8, 1e-9);
    EXPECT_NEAR(c.energyAboveVmin(), 0.0, 1e-15);
}

TEST(Capacitor, EnergyVoltageRoundTrip)
{
    auto c = paperCap();
    c.setVoltage(3.3);
    EXPECT_NEAR(c.voltage(), 3.3, 1e-12);
    EXPECT_NEAR(c.storedEnergy(), 0.5 * 1e-6 * 3.3 * 3.3, 1e-12);
}

TEST(Capacitor, PaperUsableEnergy)
{
    // Table 2: 1 uF between 2.8 V and 3.5 V holds ~2.2 uJ usable.
    auto c = paperCap();
    EXPECT_NEAR(c.energyBetween(2.8, 3.5), 2.2e-6, 0.01e-6);
}

TEST(Capacitor, AddEnergyClampsAtVmax)
{
    auto c = paperCap();
    c.setVoltage(3.49);
    const double absorbed = c.addEnergy(1.0);  // absurd surplus
    EXPECT_NEAR(c.voltage(), 3.5, 1e-9);
    EXPECT_LT(absorbed, 1.0e-6);
}

TEST(Capacitor, DrawEnergyUnderflow)
{
    auto c = paperCap();
    // An over-demand bottoms out at the 0 V rail and reports exactly
    // the energy that was actually there, not the request.
    const double stored = c.storedEnergy();
    EXPECT_DOUBLE_EQ(c.drawEnergy(1.0), stored);
    EXPECT_NEAR(c.storedEnergy(), 0.0, 1e-15);
    EXPECT_TRUE(c.brownedOut());
}

TEST(Capacitor, DrawEnergySuccess)
{
    auto c = paperCap();
    c.setVoltage(3.5);
    EXPECT_DOUBLE_EQ(c.drawEnergy(1.0e-6), 1.0e-6);
    EXPECT_LT(c.voltage(), 3.5);
    EXPECT_FALSE(c.brownedOut());
}

TEST(Capacitor, RailAccountingProperty)
{
    // Every add/draw must return exactly the change in stored energy,
    // across deposits and demands that stay inside the rails, clamp
    // at Vmax, or bottom out at 0 V. Integrating the return values
    // must therefore track the buffer level with zero drift.
    const double starts[] = { 0.0, 1.0, 2.8, 3.2, 3.4999, 3.5 };
    const double amounts[] = { 0.0,    1.0e-12, 3.0e-9, 1.0e-7,
                               1.0e-6, 5.0e-6,  1.0e-3, 1.0 };
    for (const double v0 : starts) {
        for (const double amt : amounts) {
            auto c = paperCap();
            c.setVoltage(v0);
            const double room =
                c.energyBetween(c.voltage(), c.vmax());
            const double before_add = c.storedEnergy();
            const double absorbed = c.addEnergy(amt);
            EXPECT_DOUBLE_EQ(absorbed,
                             c.storedEnergy() - before_add)
                << "add v0=" << v0 << " amt=" << amt;
            EXPECT_LE(absorbed, amt + 1e-18);
            EXPECT_LE(c.voltage(), c.vmax() + 1e-12);
            // A genuinely saturated deposit lands exactly on the
            // rail energy (not one rounded add above or below it).
            if (amt > room * 1.001 + 1e-15) {
                EXPECT_DOUBLE_EQ(c.storedEnergy(),
                                 c.energyBetween(0.0, c.vmax()));
            }

            const double before_draw = c.storedEnergy();
            const double drawn = c.drawEnergy(amt);
            EXPECT_DOUBLE_EQ(drawn,
                             before_draw - c.storedEnergy())
                << "draw v0=" << v0 << " amt=" << amt;
            EXPECT_LE(drawn, amt + 1e-18);
            EXPECT_GE(c.storedEnergy(), 0.0);
            if (amt > before_draw * 1.001 + 1e-15) {
                EXPECT_DOUBLE_EQ(c.storedEnergy(), 0.0);
            }
        }
    }
}

TEST(Capacitor, VoltageForEnergyAbove)
{
    auto c = paperCap();
    const double v = c.voltageForEnergyAbove(2.8, 1.0e-6);
    EXPECT_NEAR(c.energyBetween(2.8, v), 1.0e-6, 1e-12);
    // Clamps at vmax.
    EXPECT_DOUBLE_EQ(c.voltageForEnergyAbove(2.8, 1.0), 3.5);
}

TEST(PowerTrace, PowerAtWraps)
{
    PowerTrace t(1.0, { 1.0, 2.0, 3.0 });
    EXPECT_DOUBLE_EQ(t.powerAt(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.powerAt(2.5), 3.0);
    EXPECT_DOUBLE_EQ(t.powerAt(3.5), 1.0);  // wrapped
    EXPECT_DOUBLE_EQ(t.duration(), 3.0);
}

TEST(PowerTrace, MeanPower)
{
    PowerTrace t(1.0, { 1.0, 3.0 });
    EXPECT_DOUBLE_EQ(t.meanPower(), 2.0);
}

TEST(PowerTrace, SaveLoadRoundTrip)
{
    PowerTrace t(0.5e-3, { 0.1, 0.2, 0.3 });
    std::stringstream ss;
    t.save(ss);
    const PowerTrace u = PowerTrace::load(ss);
    EXPECT_DOUBLE_EQ(u.samplePeriod(), 0.5e-3);
    ASSERT_EQ(u.numSamples(), 3u);
    EXPECT_DOUBLE_EQ(u.samples()[1], 0.2);
}

TEST(PowerTrace, GeneratorsDeterministic)
{
    TraceGenConfig cfg;
    cfg.seed = 5;
    const auto a = makeTrace(TraceKind::RfHome, cfg);
    const auto b = makeTrace(TraceKind::RfHome, cfg);
    ASSERT_EQ(a.numSamples(), b.numSamples());
    EXPECT_EQ(a.samples(), b.samples());
}

TEST(PowerTrace, StabilityOrderingMatchesPaper)
{
    // Paper: thermal/solar stable and strong; tr.3 the most unstable.
    TraceGenConfig cfg;
    const auto tr1 = makeTrace(TraceKind::RfHome, cfg);
    const auto tr2 = makeTrace(TraceKind::RfOffice, cfg);
    const auto tr3 = makeTrace(TraceKind::RfMementos, cfg);
    const auto solar = makeTrace(TraceKind::Solar, cfg);
    const auto thermal = makeTrace(TraceKind::Thermal, cfg);

    EXPECT_GT(solar.meanPower(), tr1.meanPower());
    EXPECT_GT(thermal.meanPower(), tr1.meanPower());
    EXPECT_GT(tr1.meanPower(), tr3.meanPower());
    EXPECT_GT(tr2.variationCoefficient(), tr1.variationCoefficient());
    EXPECT_GT(tr3.variationCoefficient(), tr2.variationCoefficient());
    EXPECT_LT(thermal.variationCoefficient(),
              solar.variationCoefficient());
}

TEST(PowerTrace, ConstantKind)
{
    TraceGenConfig cfg;
    const auto t = makeTrace(TraceKind::Constant, cfg, 7.0e-3);
    EXPECT_NEAR(t.meanPower(), 7.0e-3, 1e-12);
    EXPECT_NEAR(t.variationCoefficient(), 0.0, 1e-9);
}

TEST(PowerTrace, KindNames)
{
    EXPECT_STREQ(traceKindName(TraceKind::RfHome), "trace1");
    EXPECT_STREQ(traceKindName(TraceKind::RfMementos), "trace3");
    EXPECT_STREQ(traceKindName(TraceKind::Thermal), "thermal");
}

namespace {

constexpr TraceKind kEveryTraceKind[] = {
    TraceKind::RfHome, TraceKind::RfOffice, TraceKind::RfMementos,
    TraceKind::Solar,  TraceKind::Thermal,  TraceKind::Constant,
};

/** Raw-byte equality: a memo must not perturb a single sample bit. */
bool
sameBytes(const PowerTrace &a, const PowerTrace &b)
{
    return a.samplePeriod() == b.samplePeriod() &&
        a.numSamples() == b.numSamples() &&
        std::memcmp(a.samples().data(), b.samples().data(),
                    a.numSamples() * sizeof(double)) == 0;
}

std::string
hashOfSamples(const PowerTrace &t)
{
    return util::fnv1a128Hex(t.samples().data(),
                             t.numSamples() * sizeof(double));
}

} // namespace

TEST(PowerTraceMemo, MatchesMakeTraceForEveryKind)
{
    TraceGenConfig cfg;
    cfg.seed = 11;
    for (const TraceKind k : kEveryTraceKind) {
        const PowerTrace &memo = getPowerTrace(k, cfg);
        EXPECT_TRUE(sameBytes(memo, makeTrace(k, cfg)))
            << traceKindName(k);
        // A second lookup is the same object.
        EXPECT_EQ(&getPowerTrace(k, cfg), &memo) << traceKindName(k);
    }
}

TEST(PowerTraceMemo, EveryConfigFieldIsPartOfTheKey)
{
    TraceGenConfig base;
    base.seed = 12;
    base.duration_s = 0.1;
    TraceGenConfig seed = base;
    seed.seed = 13;
    TraceGenConfig duration = base;
    duration.duration_s = 0.2;
    TraceGenConfig period = base;
    period.sample_period_s = 40.0e-6;

    const PowerTrace *b = &getPowerTrace(TraceKind::RfHome, base);
    const PowerTrace *others[] = {
        &getPowerTrace(TraceKind::RfHome, seed),
        &getPowerTrace(TraceKind::RfHome, duration),
        &getPowerTrace(TraceKind::RfHome, period),
        &getPowerTrace(TraceKind::RfOffice, base),
    };
    for (const PowerTrace *o : others) {
        EXPECT_NE(o, b);
        EXPECT_FALSE(sameBytes(*o, *b));
    }
    EXPECT_TRUE(sameBytes(*others[0],
                          makeTrace(TraceKind::RfHome, seed)));
    EXPECT_TRUE(sameBytes(*others[1],
                          makeTrace(TraceKind::RfHome, duration)));
    EXPECT_TRUE(sameBytes(*others[2],
                          makeTrace(TraceKind::RfHome, period)));
}

TEST(PowerTrace, ContentHashIsTheSampleHash)
{
    TraceGenConfig cfg;
    cfg.seed = 14;
    cfg.duration_s = 0.05;
    const PowerTrace made = makeTrace(TraceKind::Solar, cfg);
    EXPECT_EQ(made.contentHash(), hashOfSamples(made));

    const PowerTrace copy = made;
    PowerTrace assigned;
    assigned = made;
    EXPECT_EQ(copy.contentHash(), made.contentHash());
    EXPECT_EQ(assigned.contentHash(), made.contentHash());

    const PowerTrace &memo = getPowerTrace(TraceKind::Solar, cfg);
    EXPECT_EQ(memo.contentHash(), made.contentHash());

    // Distinct samples, distinct hash; the empty trace hashes no bytes.
    const PowerTrace other(1.0, { 1.0, 2.0 });
    EXPECT_NE(other.contentHash(), made.contentHash());
    EXPECT_EQ(other.contentHash(), hashOfSamples(other));
    EXPECT_EQ(PowerTrace().contentHash(), util::fnv1a128Hex(nullptr, 0));
}

TEST(PowerTraceMemo, ConcurrentLookupsShareOneTraceAndOneHash)
{
    // A key no other test uses, so the threads race on the build and
    // on the first contentHash() call.
    TraceGenConfig cfg;
    cfg.seed = 0xc0cu;
    cfg.duration_s = 0.5;
    constexpr unsigned kThreads = 8;
    const PowerTrace *trace[kThreads] = {};
    const std::string *hash[kThreads] = {};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            const PowerTrace &t = getPowerTrace(TraceKind::RfOffice, cfg);
            trace[i] = &t;
            hash[i] = &t.contentHash();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned i = 1; i < kThreads; ++i) {
        EXPECT_EQ(trace[i], trace[0]);
        EXPECT_EQ(hash[i], hash[0]);
    }
    EXPECT_EQ(*hash[0], hashOfSamples(*trace[0]));
}

TEST(Harvester, AdvanceDepositsPower)
{
    PowerTrace t(1.0, { 10.0e-3 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);  // huge: nothing clamps
    const double dep = h.advance(1.0e-3, c);
    EXPECT_NEAR(dep, 10.0e-6, 1e-12);
    EXPECT_NEAR(h.now(), 1.0e-3, 1e-12);
}

TEST(Harvester, EfficiencyApplied)
{
    PowerTrace t(1.0, { 10.0e-3 });
    Harvester h(t, 0.5);
    Capacitor c(1.0, 0.0, 100.0);
    EXPECT_NEAR(h.advance(1.0e-3, c), 5.0e-6, 1e-12);
}

TEST(Harvester, AdvanceClampsAtFullCapacitor)
{
    PowerTrace t(1.0, { 10.0e-3 });
    Harvester h(t, 1.0);
    auto c = paperCap();  // only ~2.2 uJ of room
    const double dep = h.advance(1.0, c);  // 10 mJ offered
    EXPECT_NEAR(dep, c.energyBetween(2.8, 3.5), 1e-12);
    EXPECT_NEAR(c.voltage(), 3.5, 1e-9);
}

TEST(Harvester, AdvanceCrossesSampleBoundaries)
{
    PowerTrace t(1.0e-3, { 10.0e-3, 0.0 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);
    // 2 ms spanning one full on-sample and one off-sample.
    const double dep = h.advance(2.0e-3, c);
    EXPECT_NEAR(dep, 10.0e-6, 1e-10);
}

TEST(Harvester, ChargeUntilReachesTarget)
{
    PowerTrace t(1.0, { 20.0e-3 });
    Harvester h(t, 1.0);
    auto c = paperCap();
    const double needed = c.energyBetween(2.8, 3.3);
    const double secs = h.chargeUntil(c, 3.3);
    // Charging lands on a whole-cycle boundary at or just past the
    // target, so the final voltage can overshoot by up to one cycle's
    // deposit (20 mW * 1 ns ~ 2e-11 J ~ 6 uV here) and the charge
    // time by up to one cycle (1 ns).
    EXPECT_GE(c.voltage(), 3.3 - 1e-9);
    EXPECT_NEAR(c.voltage(), 3.3, 1e-5);
    EXPECT_NEAR(secs, needed / 20.0e-3, 2e-9);
}

TEST(Harvester, ChargeUntilGivesUpOnDeadTrace)
{
    PowerTrace t(1.0, { 0.0 });
    Harvester h(t, 1.0);
    auto c = paperCap();
    const double secs = h.chargeUntil(c, 3.3, 5.0);
    EXPECT_LT(c.voltage(), 3.3);
    // One full trace pass with zero deposit proves the environment is
    // dead: the harvester gives up right there instead of stepping
    // zero-power samples until the max_wait limit.
    EXPECT_GE(secs, 1.0 - 1e-9);
    EXPECT_LT(secs, 5.0);
}

TEST(Harvester, InfiniteModeTopsUp)
{
    PowerTrace t(1.0, { 0.0 });
    Harvester h(t, 1.0, /*infinite=*/true);
    auto c = paperCap();
    h.advance(1.0e-9, c);
    EXPECT_NEAR(c.voltage(), 3.5, 1e-9);
    EXPECT_DOUBLE_EQ(h.chargeUntil(c, 3.5), 0.0);
}

TEST(Harvester, CurrentPowerFreshAtSampleBoundary)
{
    PowerTrace t(1.0e-3, { 10.0e-3, 20.0e-3 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);
    // Land exactly on the first sample boundary: the cursor must
    // already be in the next sample, so currentPower() reads the new
    // sample's power rather than a stale value from the one just
    // finished.
    h.advance(1.0e-3, c);
    EXPECT_DOUBLE_EQ(h.currentPower(), 20.0e-3);
    h.advance(1.0e-3, c);  // wraps back to sample 0
    EXPECT_DOUBLE_EQ(h.currentPower(), 10.0e-3);
}

TEST(Harvester, LongHorizonConservation)
{
    // Many tiny steps whose size does not divide the sample period:
    // the in-sample position is rebased at every boundary crossing,
    // so the accumulated phase cannot drift against the trace and the
    // total deposit stays locked to mean power over long horizons.
    PowerTrace t(1.0e-3, { 10.0e-3, 0.0 });
    Harvester h(t, 1.0);
    Capacitor c(1.0, 0.0, 100.0);
    const double dt = 0.3e-3;
    const int steps = 200000;  // 60 s = 30000 trace periods
    double deposited = 0.0;
    for (int i = 0; i < steps; ++i)
        deposited += h.advance(dt, c);
    const double horizon = dt * steps;
    const double expect = t.meanPower() * horizon;
    EXPECT_NEAR(h.now(), horizon, 1e-6);
    EXPECT_NEAR(deposited, expect, 1e-6 * expect);
    // The running accumulator is an exact integer attojoule count;
    // FP-summing 200k per-call joule returns reintroduces rounding,
    // so the two agree to summation error, not bit-exactly.
    EXPECT_NEAR(h.totalHarvested(), deposited, 1e-9 * expect);
}

TEST(Harvester, LongAdvanceMatchesMeanPower)
{
    TraceGenConfig cfg;
    cfg.seed = 3;
    const auto t = makeTrace(TraceKind::RfHome, cfg);
    Harvester h(t, 1.0);
    // Huge capacitor so nothing clamps.
    Capacitor c(1.0, 0.0, 100.0);
    const double dep = h.advance(t.duration(), c);
    EXPECT_NEAR(dep, t.meanPower() * t.duration(),
                0.01 * t.meanPower() * t.duration());
}

TEST(EnergyMeter, AccumulatesByCategory)
{
    EnergyMeter m;
    m.add(EnergyCategory::Compute, 1.0e-9);
    m.add(EnergyCategory::Compute, 2.0e-9);
    m.add(EnergyCategory::MemWrite, 5.0e-9);
    EXPECT_NEAR(m.get(EnergyCategory::Compute), 3.0e-9, 1e-18);
    EXPECT_NEAR(m.total(), 8.0e-9, 1e-18);
}

TEST(EnergyMeter, ResetZeroes)
{
    EnergyMeter m;
    m.add(EnergyCategory::Leakage, 1.0);
    m.reset();
    EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

namespace {

/** Sum of the per-category accumulators, wrapping like the meter. */
Attojoules
categorySum(const EnergyMeter &m)
{
    Attojoules sum = 0;
    for (std::size_t c = 0; c < EnergyMeter::kNumCategories; ++c)
        sum += m.getAj(static_cast<EnergyCategory>(c));
    return sum;
}

} // namespace

TEST(EnergyMeter, TotalIsTheCategorySumThroughResetAndRestore)
{
    std::mt19937_64 rng(99);
    EnergyMeter m;
    SnapshotWriter w;
    for (int i = 0; i < 10000; ++i) {
        const auto cat = static_cast<EnergyCategory>(
            rng() % EnergyMeter::kNumCategories);
        // Some adds are huge, so the sum wraps modulo 2^64.
        m.addAj(cat, rng() % 4 == 0 ? rng() : rng() % 1000000);
        ASSERT_EQ(m.totalAj(), categorySum(m));
        if (i == 5000)
            m.saveState(w);
    }
    const Attojoules at_save_sum = [&] {
        EnergyMeter probe;
        SnapshotReader r(w.data());
        probe.restoreState(r);
        return categorySum(probe);
    }();

    m.reset();
    EXPECT_EQ(m.totalAj(), 0u);
    m.addAj(EnergyCategory::Leakage, 7);
    EXPECT_EQ(m.totalAj(), 7u);

    SnapshotReader r(w.data());
    m.restoreState(r);
    EXPECT_EQ(m.totalAj(), categorySum(m));
    EXPECT_EQ(m.totalAj(), at_save_sum);
    m.addAj(EnergyCategory::Compute, 11);
    EXPECT_EQ(m.totalAj(), at_save_sum + 11);
}

namespace {

/** The division form scaleAttojoules() replaced. */
Attojoules
scaleByDivision(Attojoules rate, std::uint64_t cycles)
{
    if (rate != 0 && cycles > kMaxAttojoules / rate)
        return kMaxAttojoules;
    return rate * cycles;
}

} // namespace

TEST(Attojoules, ScaleMatchesTheDivisionForm)
{
    constexpr Attojoules M = kMaxAttojoules;
    constexpr std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();
    for (const Attojoules r : { Attojoules{ 0 }, Attojoules{ 1 },
                                Attojoules{ 3 }, Attojoules{ 7 }, M / 2,
                                M }) {
        std::vector<std::uint64_t> cs{ 0, 1, kAll };
        if (r != 0) {
            const std::uint64_t q = M / r;
            cs.insert(cs.end(), { q - 1, q, q + 1 });
        }
        for (const std::uint64_t c : cs)
            EXPECT_EQ(scaleAttojoules(r, c), scaleByDivision(r, c))
                << "rate " << r << " cycles " << c;
    }

    // Random pairs of every magnitude, so products land on both sides
    // of the ceiling.
    std::mt19937_64 rng(2024);
    for (int i = 0; i < 1000000; ++i) {
        const Attojoules r = rng() >> (rng() % 64);
        const std::uint64_t c = rng() >> (rng() % 64);
        ASSERT_EQ(scaleAttojoules(r, c), scaleByDivision(r, c))
            << "rate " << r << " cycles " << c;
    }
}

TEST(Harvester, SingleSegmentAdvanceMatchesCycleSteps)
{
    // Spans inside one sample take the inline path; spans that reach
    // or cross a boundary take the segment walk. Both must equal one
    // cycle at a time, and a zero span must change nothing.
    // 1 us samples: 1000 cycles each.
    PowerTrace tr(1.0e-6,
                  std::vector<double>{ 1.0e-3, 0.0, 4.0e-3, 2.0e-3 });
    Harvester batched(tr);
    Harvester stepped(tr);
    Capacitor cb = paperCap();
    Capacitor cs = paperCap();
    std::mt19937_64 rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Cycle span = rng() % 3 == 0 ? 0 : rng() % 2500;
        const Attojoules got = batched.advanceCycles(span, cb);
        Attojoules want = 0;
        for (Cycle k = 0; k < span; ++k)
            want += stepped.advanceCycles(1, cs);
        ASSERT_EQ(got, want);
        ASSERT_EQ(cb.storedAj(), cs.storedAj());
        ASSERT_EQ(batched.nowCycles(), stepped.nowCycles());
        ASSERT_EQ(batched.totalHarvestedAj(), stepped.totalHarvestedAj());
        ASSERT_EQ(batched.currentRateAj(), stepped.currentRateAj());
        // Drain about the mean deposit, so the level wanders between
        // the rail clamp and free charging.
        cb.drawAj(span * 1'500'000);
        cs.drawAj(span * 1'500'000);
    }
}

TEST(EnergyMeter, CategoryNames)
{
    EXPECT_STREQ(energyCategoryName(EnergyCategory::CacheRead),
                 "cache_read");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Checkpoint),
                 "checkpoint");
}
