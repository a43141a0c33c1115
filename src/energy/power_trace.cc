#include "energy/power_trace.hh"

#include <bit>
#include <cmath>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <tuple>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "util/strings.hh"

namespace wlcache {
namespace energy {

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::RfHome:     return "trace1";
      case TraceKind::RfOffice:   return "trace2";
      case TraceKind::RfMementos: return "trace3";
      case TraceKind::Solar:      return "solar";
      case TraceKind::Thermal:    return "thermal";
      case TraceKind::Constant:   return "constant";
    }
    panic("unknown TraceKind %d", static_cast<int>(kind));
}

namespace {

constexpr TraceKind kAllTraceKinds[] = {
    TraceKind::RfHome, TraceKind::RfOffice, TraceKind::RfMementos,
    TraceKind::Solar,  TraceKind::Thermal,  TraceKind::Constant,
};

} // anonymous namespace

bool
traceKindFromName(const std::string &name, TraceKind &out)
{
    for (const TraceKind k : kAllTraceKinds) {
        if (name == traceKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::string
traceKindNameList()
{
    std::string list;
    for (const TraceKind k : kAllTraceKinds) {
        if (!list.empty())
            list += ", ";
        list += traceKindName(k);
    }
    return list;
}

namespace {

/** Command-line power names, in --help order. */
struct PowerCliName
{
    const char *name;
    TraceKind kind;
    bool no_failure;
};

constexpr PowerCliName kPowerCliNames[] = {
    { "none",     TraceKind::Constant,   true },
    { "infinite", TraceKind::Constant,   true },
    { "trace1",   TraceKind::RfHome,     false },
    { "trace2",   TraceKind::RfOffice,   false },
    { "trace3",   TraceKind::RfMementos, false },
    { "solar",    TraceKind::Solar,      false },
    { "thermal",  TraceKind::Thermal,    false },
};

} // anonymous namespace

bool
powerFromCliName(const std::string &name, TraceKind &out,
                 bool &no_failure)
{
    const std::string n = util::toLower(name);
    for (const PowerCliName &p : kPowerCliNames) {
        if (n == p.name) {
            out = p.kind;
            no_failure = p.no_failure;
            return true;
        }
    }
    return false;
}

std::string
powerCliNameList()
{
    std::string list;
    for (const PowerCliName &p : kPowerCliNames) {
        if (!list.empty())
            list += '|';
        list += p.name;
    }
    return list;
}

PowerTrace::PowerTrace()
{
    static const std::shared_ptr<const Body> empty =
        std::make_shared<Body>();
    body_ = empty;
}

PowerTrace::PowerTrace(double sample_period_s,
                       std::vector<double> samples_w)
    : sample_period_s_(sample_period_s)
{
    wlc_assert(sample_period_s_ > 0.0);
    wlc_assert(!samples_w.empty());
    auto body = std::make_shared<Body>();
    body->samples_w = std::move(samples_w);
    body_ = std::move(body);
}

const std::string &
PowerTrace::contentHash() const
{
    const Body &b = *body_;
    std::call_once(b.hash_once, [&b] {
        b.hash = util::fnv1a128Hex(b.samples_w.data(),
                                   b.samples_w.size() * sizeof(double));
    });
    return b.hash;
}

double
PowerTrace::powerAt(double t_s) const
{
    const std::vector<double> &samples_w = samples();
    if (samples_w.empty())
        return 0.0;
    const double dur = duration();
    double t = std::fmod(t_s, dur);
    if (t < 0.0)
        t += dur;
    auto idx = static_cast<std::size_t>(t / sample_period_s_);
    if (idx >= samples_w.size())
        idx = samples_w.size() - 1;
    return samples_w[idx];
}

double
PowerTrace::duration() const
{
    return sample_period_s_ * static_cast<double>(numSamples());
}

double
PowerTrace::meanPower() const
{
    const std::vector<double> &samples_w = samples();
    if (samples_w.empty())
        return 0.0;
    double sum = 0.0;
    for (double w : samples_w)
        sum += w;
    return sum / static_cast<double>(samples_w.size());
}

double
PowerTrace::variationCoefficient() const
{
    const std::vector<double> &samples_w = samples();
    const double m = meanPower();
    if (m <= 0.0 || samples_w.size() < 2)
        return 0.0;
    double sq = 0.0;
    for (double w : samples_w)
        sq += (w - m) * (w - m);
    const double sd =
        std::sqrt(sq / static_cast<double>(samples_w.size() - 1));
    return sd / m;
}

void
PowerTrace::save(std::ostream &os) const
{
    // Exact rendering keeps save -> load -> save byte-identical.
    os << util::fmtExact(sample_period_s_) << '\n';
    for (double w : samples())
        os << util::fmtExact(w) << '\n';
}

PowerTrace
PowerTrace::load(std::istream &is)
{
    double period = 0.0;
    if (!(is >> period) || period <= 0.0)
        fatal("PowerTrace::load: bad sample period");
    std::vector<double> samples;
    double w;
    while (is >> w)
        samples.push_back(w);
    if (samples.empty())
        fatal("PowerTrace::load: no samples");
    return PowerTrace(period, std::move(samples));
}

namespace {

/**
 * Two-state (burst/idle) semi-Markov RF model. Burst and idle
 * durations are exponentially distributed; burst power wanders with
 * bounded Gaussian steps. The three RF environments differ in mean
 * power, duty cycle, and variability.
 */
struct RfParams
{
    double burst_power_w;   //!< Mean power while a source is active.
    double idle_power_w;    //!< Residual power between bursts.
    double burst_mean_s;    //!< Mean burst duration.
    double idle_mean_s;     //!< Mean idle duration.
    double jitter;          //!< Relative power jitter inside a burst.
};

PowerTrace
makeRfTrace(const RfParams &p, const TraceGenConfig &cfg)
{
    Rng rng(cfg.seed);
    const auto n =
        static_cast<std::size_t>(cfg.duration_s / cfg.sample_period_s);
    std::vector<double> samples;
    samples.reserve(n);

    bool in_burst = rng.nextBool(
        p.burst_mean_s / (p.burst_mean_s + p.idle_mean_s));
    double state_left =
        rng.nextExponential(in_burst ? p.burst_mean_s : p.idle_mean_s);
    double level = p.burst_power_w;

    while (samples.size() < n) {
        if (state_left <= 0.0) {
            in_burst = !in_burst;
            state_left = rng.nextExponential(
                in_burst ? p.burst_mean_s : p.idle_mean_s);
            if (in_burst) {
                level = p.burst_power_w *
                    (1.0 + p.jitter * rng.nextGaussian());
                if (level < 0.2 * p.burst_power_w)
                    level = 0.2 * p.burst_power_w;
            }
        }
        double w = in_burst ? level : p.idle_power_w;
        // Small per-sample flutter so samples are not perfectly flat.
        w *= 1.0 + 0.05 * p.jitter * rng.nextGaussian();
        samples.push_back(w > 0.0 ? w : 0.0);
        state_left -= cfg.sample_period_s;
    }
    return PowerTrace(cfg.sample_period_s, std::move(samples));
}

PowerTrace
makeSolarTrace(const TraceGenConfig &cfg)
{
    Rng rng(cfg.seed ^ 0x50a1a2ull);
    const auto n =
        static_cast<std::size_t>(cfg.duration_s / cfg.sample_period_s);
    std::vector<double> samples;
    samples.reserve(n);
    // Strong base level with slow irradiance drift and occasional
    // cloud dips.
    const double base_w = 46.0e-3;
    double cloud_left = 0.0;
    double cloud_factor = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) * cfg.sample_period_s;
        const double drift =
            1.0 + 0.12 * std::sin(2.0 * M_PI * t / 2.7) +
            0.05 * std::sin(2.0 * M_PI * t / 0.61);
        if (cloud_left <= 0.0 && rng.nextBool(2e-4)) {
            cloud_left = rng.nextDouble(0.02, 0.08);
            cloud_factor = rng.nextDouble(0.45, 0.75);
        }
        double factor = 1.0;
        if (cloud_left > 0.0) {
            factor = cloud_factor;
            cloud_left -= cfg.sample_period_s;
        }
        samples.push_back(base_w * drift * factor);
    }
    return PowerTrace(cfg.sample_period_s, std::move(samples));
}

PowerTrace
makeThermalTrace(const TraceGenConfig &cfg)
{
    Rng rng(cfg.seed ^ 0x7e41ull);
    const auto n =
        static_cast<std::size_t>(cfg.duration_s / cfg.sample_period_s);
    std::vector<double> samples;
    samples.reserve(n);
    // Thermal gradients change very slowly: near-constant output.
    const double base_w = 44.0e-3;
    double level = base_w;
    for (std::size_t i = 0; i < n; ++i) {
        level += 0.03e-3 * rng.nextGaussian();
        if (level < 0.9 * base_w)
            level = 0.9 * base_w;
        if (level > 1.1 * base_w)
            level = 1.1 * base_w;
        samples.push_back(level);
    }
    return PowerTrace(cfg.sample_period_s, std::move(samples));
}

} // anonymous namespace

PowerTrace
makeTrace(TraceKind kind, const TraceGenConfig &cfg, double constant_w)
{
    switch (kind) {
      case TraceKind::RfHome:
        // Paper Trace 1: comparatively stable home RF environment.
        return makeRfTrace({ 24.0e-3, 2.8e-3, 3000.0e-6, 600.0e-6,
                             0.25 },
                           cfg);
      case TraceKind::RfOffice:
        // Paper Trace 2: office RF, shorter bursts, more idle time.
        return makeRfTrace({ 24.0e-3, 2.5e-3, 1700.0e-6, 800.0e-6,
                             0.45 },
                           cfg);
      case TraceKind::RfMementos:
        // Paper tr.3: RFID-scale source, very low duty cycle.
        return makeRfTrace({ 20.0e-3, 1.8e-3, 600.0e-6, 1300.0e-6,
                             0.60 },
                           cfg);
      case TraceKind::Solar:
        return makeSolarTrace(cfg);
      case TraceKind::Thermal:
        return makeThermalTrace(cfg);
      case TraceKind::Constant: {
        const auto n = static_cast<std::size_t>(
            cfg.duration_s / cfg.sample_period_s);
        return PowerTrace(cfg.sample_period_s,
                          std::vector<double>(n ? n : 1, constant_w));
      }
    }
    panic("unknown TraceKind %d", static_cast<int>(kind));
}

namespace {

/** getPowerTrace() key: the kind and the exact bits of every field. */
using PowerTraceKey =
    std::tuple<TraceKind, std::uint64_t, std::uint64_t, std::uint64_t>;

/**
 * Process-wide power-trace memo, shared by every runner worker thread
 * (mirrors workloads::getTrace). The mutex guards lookup and build;
 * std::map nodes keep handed-out references stable across inserts.
 */
std::mutex power_trace_cache_mutex;

std::map<PowerTraceKey, PowerTrace> &
powerTraceCache()
{
    static std::map<PowerTraceKey, PowerTrace> cache;
    return cache;
}

} // anonymous namespace

const PowerTrace &
getPowerTrace(TraceKind kind, const TraceGenConfig &cfg)
{
    const PowerTraceKey key{ kind, cfg.seed,
                             std::bit_cast<std::uint64_t>(cfg.duration_s),
                             std::bit_cast<std::uint64_t>(
                                 cfg.sample_period_s) };
    const std::lock_guard<std::mutex> lock(power_trace_cache_mutex);
    auto &cache = powerTraceCache();
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, makeTrace(kind, cfg)).first;
    return it->second;
}

PowerTrace
deriveNodeTrace(const PowerTrace &base, std::uint64_t node_id,
                double jitter)
{
    if (jitter <= 0.0 || base.numSamples() == 0)
        return base;
    // Seed purely from the node id, mixed through the golden-ratio
    // multiplier so consecutive ids land far apart in seed space (the
    // Rng's SplitMix init then scrambles further).
    Rng rng(0xf1ee7000dull ^
            (node_id * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull));
    // Stationary AR(1) gain: var(g) = jitter^2 regardless of rho, so
    // `jitter` reads directly as the relative power spread. rho is
    // chosen so the gain decorrelates over ~1 ms (50 samples at the
    // 20 us grid) — slow against bursts, fast against the recording.
    const double rho = 0.98;
    const double sigma = jitter * std::sqrt(1.0 - rho * rho);
    double g = jitter * rng.nextGaussian();
    std::vector<double> samples;
    samples.reserve(base.numSamples());
    for (const double w : base.samples()) {
        double f = 1.0 + g;
        if (f < 0.05)
            f = 0.05; // keep power strictly positive
        samples.push_back(w * f);
        g = rho * g + sigma * rng.nextGaussian();
    }
    return PowerTrace(base.samplePeriod(), std::move(samples));
}

} // namespace energy
} // namespace wlcache
