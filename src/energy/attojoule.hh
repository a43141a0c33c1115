/**
 * @file
 * Exact integer energy arithmetic. Every energy quantity the run loop
 * integrates (meter accumulators, the capacitor level, harvester
 * deposit rates) is quantized to whole attojoules (1 aJ = 1e-18 J)
 * and accumulated in uint64_t. Integer addition is associative, so
 * integrating a compute gap cycle-by-cycle and integrating it in one
 * closed-form step produce bit-identical state — the invariant the
 * `step_mode = {percycle, skip_ahead}` differential harness rests on
 * (DESIGN.md §15). Doubles would break this: N tiny adds and one
 * N-scaled add round differently.
 *
 * Range: 2^64 aJ ≈ 18.4 J, far above anything an energy-harvesting
 * node moves per run (whole runs consume millijoules; the default
 * capacitor stores ~6 uJ). Conversions saturate defensively anyway.
 *
 * toAttojoules() runs several times per simulated event, so it rounds
 * inline instead of calling libm; the proof that it matches llround()
 * exactly assumes IEEE double semantics, hence the -ffast-math guard.
 */

#ifndef WLCACHE_ENERGY_ATTOJOULE_HH
#define WLCACHE_ENERGY_ATTOJOULE_HH

#include <cfloat>
#include <cstdint>

#if defined(__FAST_MATH__) || FLT_EVAL_METHOD != 0
#error "toAttojoules() needs exact IEEE double arithmetic (no -ffast-math)"
#endif

namespace wlcache {
namespace energy {

/** Whole attojoules (1e-18 J) in a uint64_t. */
using Attojoules = std::uint64_t;

/** Attojoules per joule (exactly representable as a double). */
constexpr double kAttojoulesPerJoule = 1.0e18;

/**
 * Saturation ceiling for toAttojoules(), ~9 J. It is exactly
 * representable as a double and below 2^63, so every value the
 * quantizer rounds fits the int64 range llround() is defined on (the
 * reference it must match).
 */
constexpr Attojoules kMaxAttojoules = 9'000'000'000'000'000'000ull;
static_assert(kMaxAttojoules < (Attojoules{ 1 } << 63),
              "toAttojoules() must stay inside llround()'s domain");

/**
 * Quantize a non-negative joule amount to whole attojoules, rounding
 * half away from zero exactly as std::llround() does. This is the
 * single quantizer every component shares: two call sites quantizing
 * the same double always agree.
 *
 * Why truncate-and-compare equals llround() for 0 < aj < 2^63: the
 * cast truncates, so t = floor(aj) (aj is positive and t fits).
 *  - aj < 2^53: t < 2^53 converts back to double exactly, and
 *    aj - t is exact (t = 0 leaves aj; otherwise t <= aj <= 2t and
 *    Sterbenz's lemma applies). So the compare sees the true
 *    fraction, and a fraction of exactly 0.5 rounds up, like llround.
 *  - aj >= 2^52: the double spacing is >= 1, so aj is already an
 *    integer; t == aj, the fraction is 0 and nothing is added.
 * The two ranges overlap, so every aj is covered.
 */
inline Attojoules
toAttojoules(double joules)
{
    if (!(joules > 0.0))
        return 0;
    const double aj = joules * kAttojoulesPerJoule;
    if (aj >= static_cast<double>(kMaxAttojoules))
        return kMaxAttojoules;
    const auto t = static_cast<Attojoules>(aj);
    return t + (aj - static_cast<double>(t) >= 0.5);
}

/**
 * Scale a per-cycle attojoule rate by a cycle count, saturating at
 * kMaxAttojoules instead of wrapping. A multi-second span at watt
 * scale can exceed 2^64 aJ; saturation keeps the result a valid
 * "more than the capacitor can hold" deposit in that case.
 *
 * The full 128-bit product is compared against the ceiling, so no
 * divide runs per call. It saturates exactly where the division form
 * `cycles > kMaxAttojoules / rate` does: for integers,
 * c > floor(M / r) <=> r * c > M.
 */
inline Attojoules
scaleAttojoules(Attojoules rate, std::uint64_t cycles)
{
    __extension__ using Wide = unsigned __int128;
    const Wide product = static_cast<Wide>(rate) * cycles;
    if (product > kMaxAttojoules)
        return kMaxAttojoules;
    return static_cast<Attojoules>(product);
}

/**
 * Convert attojoules back to joules. Division by the exactly
 * representable 1e18 yields the correctly rounded double of the exact
 * rational aj/1e18, so equal integer states always render as equal
 * doubles (reports, JSON records, thresholds).
 */
inline double
toJoules(Attojoules aj)
{
    return static_cast<double>(aj) / kAttojoulesPerJoule;
}

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_ATTOJOULE_HH
