/**
 * @file
 * Exactness of the pre-quantized per-access energies. Every component
 * on the per-event path quantizes its energies once, at construction,
 * and charges the meter in attojoules. These tests pin each charge to
 * toAttojoules() of the joule expression the component stands for, so
 * a table that is off by one entry, or an `n * toAttojoules(e)`
 * shortcut in place of `toAttojoules(n * e)`, fails here.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "cache/icache.hh"
#include "cache/vcache_wt.hh"
#include "cpu/icache_stream.hh"
#include "cpu/inorder_core.hh"
#include "energy/energy_meter.hh"
#include "mem/nvm_memory.hh"

using namespace wlcache;
using energy::Attojoules;
using energy::EnergyCategory;
using energy::toAttojoules;

namespace {

/** Per-unit energies whose multiples do not quantize linearly. */
const double kAwkward[] = { 1.0e-12 / 3.0, 18.0e-12, 55.0e-12 / 7.0 };

/**
 * True if scaling @p e by some count in [1, 300] quantizes
 * differently from scaling its quantized value by that count.
 */
bool
scalingIsNonlinear(double e)
{
    for (unsigned n = 1; n <= 300; ++n) {
        if (n * toAttojoules(e) != toAttojoules(n * e))
            return true;
    }
    return false;
}

/** Change in one meter category across @p fn. */
template <typename Fn>
Attojoules
deltaAj(const energy::EnergyMeter &m, EnergyCategory cat, Fn &&fn)
{
    const Attojoules before = m.getAj(cat);
    fn();
    return m.getAj(cat) - before;
}

/** VCacheWT with the BaseTagCache charge hooks made callable. */
class ChargeProbe : public cache::VCacheWT
{
  public:
    using VCacheWT::VCacheWT;
    using BaseTagCache::chargeArrayRead;
    using BaseTagCache::chargeArrayWrite;
    using BaseTagCache::chargeLineFill;
    using BaseTagCache::chargeLineRead;
    using BaseTagCache::chargeReplUpdate;
};

cache::CacheParams
awkwardCacheParams(cache::ReplPolicy repl)
{
    cache::CacheParams p;
    p.repl = repl;
    p.access_energy_read = 1.0e-12 / 3.0;
    p.access_energy_write = 18.0e-12 / 7.0;
    p.line_fill_energy = 60.0e-12 / 9.0;
    p.line_read_energy = 50.0e-12 / 3.0;
    p.lru_update_energy = 1.0e-12 / 7.0;
    return p;
}

mem::NvmParams
smallNvm()
{
    mem::NvmParams p;
    p.size_bytes = 1u << 16;
    return p;
}

} // namespace

TEST(ChargeExactness, AwkwardEnergiesDefeatIntegerScaling)
{
    // The tests below are only meaningful if a shortcut that scales a
    // quantized unit energy would give a different answer.
    bool any = false;
    for (const double e : kAwkward)
        any = any || scalingIsNonlinear(e);
    EXPECT_TRUE(any);
    EXPECT_TRUE(scalingIsNonlinear(1.0e-12 / 3.0));
}

TEST(ChargeExactness, TagCacheChargesUnderLruAndFifo)
{
    for (const auto repl : { cache::ReplPolicy::LRU,
                             cache::ReplPolicy::FIFO }) {
        SCOPED_TRACE(cache::replPolicyName(repl));
        const cache::CacheParams p = awkwardCacheParams(repl);
        energy::EnergyMeter m;
        mem::NvmMemory nvm(smallNvm(), &m);
        ChargeProbe c(p, nvm, &m);

        EXPECT_EQ(deltaAj(m, EnergyCategory::CacheRead,
                          [&] { c.chargeArrayRead(); }),
                  toAttojoules(p.access_energy_read));
        EXPECT_EQ(deltaAj(m, EnergyCategory::CacheWrite,
                          [&] { c.chargeArrayWrite(); }),
                  toAttojoules(p.access_energy_write));
        EXPECT_EQ(deltaAj(m, EnergyCategory::CacheWrite,
                          [&] { c.chargeLineFill(); }),
                  toAttojoules(p.line_fill_energy));
        EXPECT_EQ(deltaAj(m, EnergyCategory::CacheRead,
                          [&] { c.chargeLineRead(); }),
                  toAttojoules(p.line_read_energy));
        const Attojoules repl_aj =
            repl == cache::ReplPolicy::LRU
                ? toAttojoules(p.lru_update_energy)
                : 0;
        EXPECT_EQ(deltaAj(m, EnergyCategory::CacheWrite,
                          [&] { c.chargeReplUpdate(); }),
                  repl_aj);
        // Nothing leaks into another category.
        EXPECT_EQ(m.getAj(EnergyCategory::Compute), 0u);
        EXPECT_EQ(m.getAj(EnergyCategory::MemRead), 0u);
        EXPECT_EQ(m.getAj(EnergyCategory::MemWrite), 0u);
    }
}

TEST(ChargeExactness, TagCacheHitChargesMatchTheExpressions)
{
    // A load hit on the write-through cache pays one array read plus
    // the replacement update, through the same quantized values.
    for (const auto repl : { cache::ReplPolicy::LRU,
                             cache::ReplPolicy::FIFO }) {
        SCOPED_TRACE(cache::replPolicyName(repl));
        const cache::CacheParams p = awkwardCacheParams(repl);
        energy::EnergyMeter m;
        mem::NvmMemory nvm(smallNvm(), &m);
        cache::VCacheWT c(p, nvm, &m);
        std::uint64_t v = 0;
        c.access(MemOp::Load, 0x100, 4, 0, &v, 0);  // Warm the line.
        const Attojoules read0 = m.getAj(EnergyCategory::CacheRead);
        const Attojoules write0 = m.getAj(EnergyCategory::CacheWrite);
        for (unsigned i = 0; i < 10; ++i)
            c.access(MemOp::Load, 0x100 + 4 * i, 4, 0, &v, 1000);
        EXPECT_EQ(m.getAj(EnergyCategory::CacheRead) - read0,
                  10 * toAttojoules(p.access_energy_read));
        EXPECT_EQ(m.getAj(EnergyCategory::CacheWrite) - write0,
                  repl == cache::ReplPolicy::LRU
                      ? 10 * toAttojoules(p.lru_update_energy)
                      : 0);
    }
}

TEST(ChargeExactness, CoreComputeTableAndTail)
{
    for (const double e : kAwkward) {
        SCOPED_TRACE(e);
        energy::EnergyMeter m;
        mem::NvmMemory nvm(mem::NvmParams{}, &m);
        const cache::CacheParams cp;
        cache::InstrCache icache(cp, cache::ICacheKind::Volatile, nvm,
                                 &m);
        cache::VCacheWT dcache(cp, nvm, &m);
        cpu::CoreParams core_params;
        core_params.compute_energy_per_insn = e;
        cpu::InOrderCore core(core_params, icache, dcache,
                              cpu::ICacheStream(cpu::ICacheStreamParams{}),
                              &m);

        constexpr unsigned kTable = cpu::InOrderCore::kComputeTableInsns;
        for (unsigned n = 0; n <= kTable + 64; ++n) {
            ASSERT_EQ(core.computeEnergyAj(n),
                      toAttojoules(e * static_cast<double>(n)))
                << "insns=" << n;
        }

        // Every gap from 0 to one past the table, then a duty-cycled
        // sized one. An event retires gap + 1 instructions.
        std::vector<unsigned> gaps;
        for (unsigned g = 0; g <= kTable + 1; ++g)
            gaps.push_back(g);
        gaps.push_back(60000);
        Cycle t = 0;
        for (const unsigned g : gaps) {
            const MemAccess ev{ g, MemOp::Load, 4, 0x1000, 0 };
            const Attojoules d =
                deltaAj(m, EnergyCategory::Compute,
                        [&] { t = core.executeEvent(ev, t); });
            ASSERT_EQ(d, toAttojoules(e * static_cast<double>(g + 1)))
                << "gap=" << g;
        }
    }
}

TEST(ChargeExactness, NvmReadWriteForBothModelsAndRowStates)
{
    for (const auto model :
         { mem::NvmModel::SingleCursor, mem::NvmModel::BankedQueue }) {
        for (const unsigned retries : { 0u, 2u }) {
            SCOPED_TRACE(std::string(mem::nvmModelName(model)) +
                         " retries=" + std::to_string(retries));
            mem::NvmParams p = smallNvm();
            p.model = model;
            p.write_verify_retries = retries;
            p.activate_energy = 1.0e-12 / 3.0;
            p.read_energy_per_byte = 18.0e-12 / 7.0;
            p.write_energy_per_byte = 55.0e-12 / 7.0;
            energy::EnergyMeter m;
            mem::NvmMemory nvm(p, &m);
            const bool legacy = model == mem::NvmModel::SingleCursor;

            std::vector<std::uint8_t> buf(cache::kMaxLineBytes + 1, 0x5a);
            unsigned seen[2] = { 0, 0 };  // [row_hit] outcomes (banked)
            Cycle t = 0;
            for (unsigned b = 1; b <= cache::kMaxLineBytes + 1; ++b) {
                // Each size twice at one address: the banked model
                // opens the row on the first access and hits it on
                // the second.
                for (unsigned rep = 0; rep < 2; ++rep) {
                    const Addr addr = 0x2000 + 0x400 * (b % 16);
                    std::uint64_t hits0 = nvm.rowHits();
                    const Attojoules dw =
                        deltaAj(m, EnergyCategory::MemWrite, [&] {
                            t = nvm.write(addr, b, buf.data(), t).ready;
                        });
                    bool hit = nvm.rowHits() != hits0;
                    const double pulses = (1.0 + retries) *
                        p.write_energy_per_byte * b;
                    const double we = legacy
                        ? p.activate_energy + pulses
                        : (hit ? 0.0 : p.activate_energy) + pulses;
                    ASSERT_EQ(dw, toAttojoules(we)) << "write b=" << b;
                    ++seen[hit];

                    hits0 = nvm.rowHits();
                    const Attojoules dr =
                        deltaAj(m, EnergyCategory::MemRead, [&] {
                            t = nvm.read(addr, b, t, buf.data()).ready;
                        });
                    hit = nvm.rowHits() != hits0;
                    const double re = legacy
                        ? p.activate_energy + p.read_energy_per_byte * b
                        : (hit ? 0.0 : p.activate_energy) +
                              p.read_energy_per_byte * b;
                    ASSERT_EQ(dr, toAttojoules(re)) << "read b=" << b;
                    ++seen[hit];
                }
            }
            if (!legacy) {
                EXPECT_GT(seen[0], 0u);
                EXPECT_GT(seen[1], 0u);
            }
        }
    }
}

TEST(ChargeExactnessDeathTest, NegativeOrNanEnergyIsRejectedAtConstruction)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : { -1.0e-12, nan }) {
        cache::CacheParams cp;
        cp.access_energy_write = bad;
        EXPECT_DEATH(
            {
                mem::NvmMemory nvm(smallNvm());
                cache::VCacheWT c(cp, nvm, nullptr);
            },
            "negative or NaN");

        mem::NvmParams np = smallNvm();
        np.write_energy_per_byte = bad;
        EXPECT_DEATH({ mem::NvmMemory nvm(np); }, "negative or NaN");

        EXPECT_DEATH(
            {
                mem::NvmMemory nvm(smallNvm());
                const cache::CacheParams ok;
                cache::InstrCache ic(ok, cache::ICacheKind::Volatile, nvm,
                                     nullptr);
                cache::VCacheWT dc(ok, nvm, nullptr);
                cpu::CoreParams core_params;
                core_params.compute_energy_per_insn = bad;
                cpu::InOrderCore core(
                    core_params, ic, dc,
                    cpu::ICacheStream(cpu::ICacheStreamParams{}),
                    nullptr);
            },
            "negative or NaN");
    }
}
