/**
 * @file
 * Energy bookkeeping by consumption category, matching the breakdown
 * the paper reports in Figure 13(b): cache read/write, memory
 * read/write, and compute, plus checkpoint/restore and leakage which
 * the paper folds into the totals.
 *
 * Accumulators are integer attojoules (see attojoule.hh): integer
 * addition is associative, so the skip-ahead loop can batch a gap's
 * leakage as one `cycles * rate` add and land on exactly the state
 * the per-cycle reference loop reaches one add at a time.
 */

#ifndef WLCACHE_ENERGY_ENERGY_METER_HH
#define WLCACHE_ENERGY_ENERGY_METER_HH

#include <array>
#include <cstddef>

#include "energy/attojoule.hh"
#include "sim/logging.hh"

namespace wlcache {

class SnapshotWriter;
class SnapshotReader;

namespace energy {

/** Consumption category for the Fig. 13(b) breakdown. */
enum class EnergyCategory : std::size_t
{
    Compute = 0,
    CacheRead,
    CacheWrite,
    MemRead,
    MemWrite,
    Checkpoint,
    Restore,
    Leakage,
    NumCategories,
};

/** Human-readable category name. */
const char *energyCategoryName(EnergyCategory cat);

/**
 * Quantize a per-access energy once, when the component charging it
 * is built. The `joules >= 0` check EnergyMeter::add() makes on every
 * call (it also rejects NaN) moves here, so a bad configuration still
 * fails loudly, at construction instead of at the first access.
 */
inline Attojoules
quantizeCharge(double joules)
{
    wlc_assert(joules >= 0.0, "per-access energy %g J is negative or NaN",
               joules);
    return toAttojoules(joules);
}

/** Accumulates attojoules per category (joule API quantizes). */
class EnergyMeter
{
  public:
    static constexpr std::size_t kNumCategories =
        static_cast<std::size_t>(EnergyCategory::NumCategories);

    /**
     * Add @p joules (quantized to whole aJ) to category @p cat. For
     * one-off charges only: a per-access charge is quantized once,
     * with quantizeCharge(), and added with addAj().
     */
    void
    add(EnergyCategory cat, double joules)
    {
        wlc_assert(joules >= 0.0);
        addAj(cat, toAttojoules(joules));
    }

    /** Add an exact attojoule amount to category @p cat. */
    void
    addAj(EnergyCategory cat, Attojoules aj)
    {
        wlc_assert(cat != EnergyCategory::NumCategories);
        aj_[static_cast<std::size_t>(cat)] += aj;
        total_aj_ += aj;
    }

    /** Consumption of a single category, joules. */
    double get(EnergyCategory cat) const;

    /** Consumption of a single category, attojoules (exact). */
    Attojoules getAj(EnergyCategory cat) const;

    /** Total across all categories, joules. */
    double total() const;

    /**
     * Total across all categories, attojoules (exact). Like the sum it
     * equals, it wraps modulo 2^64.
     */
    Attojoules totalAj() const { return total_aj_; }

    /** Zero every category. */
    void reset();

    /** Serialize every category's accumulator. */
    void saveState(SnapshotWriter &w) const;

    /** Restore a state saved with saveState(). */
    void restoreState(SnapshotReader &r);

  private:
    std::array<Attojoules, kNumCategories> aj_{};

    /**
     * Running sum of aj_, kept by every writer so totalAj() (read once
     * per event) is O(1). Derived state: never serialized.
     */
    Attojoules total_aj_ = 0;
};

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_ENERGY_METER_HH
