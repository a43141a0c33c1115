/**
 * @file
 * Ambient-power traces. The paper evaluates with two RF traces
 * recorded at a home and an office (NVPsim's Trace 1 / Trace 2), a
 * third RF trace from Mementos, and solar/thermal traces. Those
 * recordings are not redistributable, so this module synthesizes
 * deterministic traces whose *stability ordering* and burst character
 * match the paper's description (see DESIGN.md §2): thermal and solar
 * are strong and stable; RF traces are weak and bursty, with Trace 2
 * less stable than Trace 1 and the Mementos trace (tr.3) the most
 * unstable of all.
 */

#ifndef WLCACHE_ENERGY_POWER_TRACE_HH
#define WLCACHE_ENERGY_POWER_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wlcache {
namespace energy {

/** The ambient-energy environments evaluated in the paper. */
enum class TraceKind
{
    RfHome,     //!< Paper "Trace 1": RF at home, relatively stable.
    RfOffice,   //!< Paper "Trace 2": RF at office, less stable.
    RfMementos, //!< Paper "tr.3": RFID-scale, highly unstable.
    Solar,      //!< Strong, slowly varying.
    Thermal,    //!< Strong, nearly constant.
    Constant,   //!< Fixed power level (testing / no-failure runs).
};

/** Human-readable name for a trace kind ("trace1", "solar", ...). */
const char *traceKindName(TraceKind kind);

/**
 * Inverse of traceKindName(): parse "trace1".."trace3", "solar",
 * "thermal", "constant".
 * @return true and set @p out on a match; false on an unknown name.
 */
bool traceKindFromName(const std::string &name, TraceKind &out);

/**
 * Comma-separated list of every valid trace-kind name, for error
 * messages ("trace1, trace2, trace3, solar, thermal, constant").
 */
std::string traceKindNameList();

/**
 * Parse a command-line / sweep-spec power name, case-insensitively:
 * "none" or "infinite" (constant power and no outages: sets
 * @p no_failure) or one of the ambient traces "trace1".."trace3",
 * "solar", "thermal".
 * @return true and set @p out and @p no_failure on a match.
 */
bool powerFromCliName(const std::string &name, TraceKind &out,
                      bool &no_failure);

/**
 * Every power name powerFromCliName() accepts, '|'-separated
 * ("none|infinite|trace1|trace2|trace3|solar|thermal").
 */
std::string powerCliNameList();

/**
 * A piecewise-constant ambient power waveform. Sampled at a fixed
 * period; reads past the end wrap around, so a finite recording models
 * an arbitrarily long environment.
 *
 * The samples are immutable once built, and copies share them: copying
 * a trace into a Harvester or a process-wide memo costs a reference
 * count, not a 100k-sample copy. Moving copies too, so a moved-from
 * trace stays valid.
 */
class PowerTrace
{
  public:
    /** Empty trace (powerAt() returns 0). */
    PowerTrace();

    /**
     * @param sample_period_s Seconds covered by each sample.
     * @param samples_w Power in watts for each period.
     */
    PowerTrace(double sample_period_s, std::vector<double> samples_w);

    PowerTrace(const PowerTrace &) = default;
    PowerTrace &operator=(const PowerTrace &) = default;

    /** Ambient power in watts at absolute time @p t_s (wraps). */
    double powerAt(double t_s) const;

    /** Duration of one pass over the recording, seconds. */
    double duration() const;

    double samplePeriod() const { return sample_period_s_; }
    std::size_t numSamples() const { return body_->samples_w.size(); }
    const std::vector<double> &samples() const
    {
        return body_->samples_w;
    }

    /**
     * util::fnv1a128Hex() of the raw sample bytes. Computed on first
     * use, at most once per sample set however many threads or copies
     * ask; construction never pays for it.
     */
    const std::string &contentHash() const;

    /** Mean power over the whole recording, watts. */
    double meanPower() const;

    /** Coefficient of variation (stddev/mean) — instability measure. */
    double variationCoefficient() const;

    /** Serialize as "period_s\nW0\nW1\n..." text. */
    void save(std::ostream &os) const;

    /** Parse the save() format; throws via fatal() on bad input. */
    static PowerTrace load(std::istream &is);

  private:
    /** Shared, immutable sample storage plus its lazily built hash. */
    struct Body
    {
        std::vector<double> samples_w;
        mutable std::once_flag hash_once;
        mutable std::string hash;
    };

    double sample_period_s_ = 1.0e-3;
    std::shared_ptr<const Body> body_;
};

/** Tunable parameters for the synthetic trace generators. */
struct TraceGenConfig
{
    std::uint64_t seed = 1;
    double duration_s = 2.0;          //!< Length of one recording pass.
    double sample_period_s = 20.0e-6; //!< 20 us granularity.
};

/**
 * Synthesize a power trace of the given kind.
 *
 * @param kind Which environment to model.
 * @param cfg Generator seed/length parameters.
 * @param constant_w Power level used when @p kind is Constant.
 */
PowerTrace makeTrace(TraceKind kind, const TraceGenConfig &cfg = {},
                     double constant_w = 5.0e-3);

/**
 * makeTrace(@p kind, @p cfg) built once per process and shared: a
 * mutex-guarded memo keyed by the kind and every TraceGenConfig field
 * (Constant uses makeTrace()'s default level). Each distinct key holds
 * its samples (~0.8 MB at the default length) for the life of the
 * process. The returned reference stays valid and the trace is never
 * mutated, so any thread may read it without locking.
 */
const PowerTrace &getPowerTrace(TraceKind kind, const TraceGenConfig &cfg);

/**
 * Derive a per-node trace from a shared environment envelope.
 *
 * Fleet scenarios model N sensors in one ambient environment: every
 * node sees the same burst/idle structure (the base trace), modulated
 * by a slowly varying multiplicative gain that is unique to the node —
 * antenna orientation, shadowing, and placement differ per device but
 * drift slowly relative to the 20 us sample grid. The gain is an AR(1)
 * process seeded purely by @p node_id, so derivation is deterministic
 * (same inputs ⇒ identical samples, bit for bit) and different node
 * ids decorrelate. The base trace is never mutated; each call returns
 * an independent PowerTrace so no cursor/phase state can leak between
 * nodes sharing one base.
 *
 * @param base Shared environment trace (returned unchanged when
 *             @p jitter <= 0).
 * @param node_id Fleet node index; sole seed of the jitter stream.
 * @param jitter Relative gain amplitude (stddev of the stationary
 *               AR(1) gain). 0 disables derivation.
 */
PowerTrace deriveNodeTrace(const PowerTrace &base,
                           std::uint64_t node_id, double jitter);

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_POWER_TRACE_HH
