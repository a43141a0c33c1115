#include "nvp/run_json.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "sim/snapshot.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

namespace {

/** The field list of one interval rollup (@p I may be const). */
template <class V, class I>
void
visitInterval(V &v, I &iv)
{
    v.u64("index", iv.index);
    v.u64("start_cycle", iv.start_cycle);
    v.u64("end_cycle", iv.end_cycle);
    v.u64("instructions", iv.instructions);
    v.u64("nvm_writes", iv.nvm_writes);
    v.u64("cleans", iv.cleans);
    v.u32("dirty_high_water", iv.dirty_high_water);
    v.f64("checkpoint_j", iv.checkpoint_j);
    v.f64("harvested_j", iv.harvested_j);
}

/**
 * The run record's field list: every serialized RunResult member,
 * named once, in JSON order. The JSON writer and reader and the
 * snapshot save and restore are its four visitors. A visitor has one
 * hook per value type (u64, u32, f64, b, str), begin()/end() around
 * the JSON's nested blocks, and one hook for each member that is not
 * a plain value: design (a name in JSON), stats (a spliced JSON
 * object), intervals (visitInterval records) and meter (joules).
 */
template <class V, class R>
void
visitRunResult(V &v, R &r)
{
    v.str("workload", r.workload);
    v.design("design", r.design);
    v.b("completed", r.completed);
    v.u64("on_cycles", r.on_cycles);
    v.f64("off_seconds", r.off_seconds);
    v.f64("total_seconds", r.total_seconds);
    v.u64("instructions", r.instructions);
    v.u64("trace_events", r.trace_events);
    v.u64("replayed_events", r.replayed_events);
    v.u64("outages", r.outages);
    v.u64("reserve_violations", r.reserve_violations);
    v.u64("nvm_writes", r.nvm_writes);
    v.u64("nvm_reads", r.nvm_reads);
    v.u64("nvm_bytes_written", r.nvm_bytes_written);
    v.begin("nvm_device");
    v.u64("bank_conflicts", r.nvm_bank_conflicts);
    v.u64("queue_stall_cycles", r.nvm_queue_stall_cycles);
    v.u64("turnaround_stall_cycles", r.nvm_turnaround_stall_cycles);
    v.u64("wear_max", r.nvm_wear_max);
    v.u64("wear_lines_touched", r.nvm_wear_lines_touched);
    v.u64("lifetime_headroom", r.nvm_lifetime_headroom);
    v.f64("write_p99_latency", r.nvm_write_p99_latency);
    v.u64("row_hits", r.nvm_row_hits);
    v.u64("row_misses", r.nvm_row_misses);
    v.end();
    v.begin("nvm_log");
    v.u64("appended_records", r.log_appended_records);
    v.u64("appended_bytes", r.log_appended_bytes);
    v.u64("replays", r.log_replays);
    v.u64("replayed_records", r.log_replayed_records);
    v.u64("replayed_bytes", r.log_replayed_bytes);
    v.u64("compactions", r.log_compactions);
    v.u64("compacted_lines", r.log_compacted_lines);
    v.u64("compacted_bytes", r.log_compacted_bytes);
    v.u64("live_lines", r.log_live_lines);
    v.end();
    v.f64("dcache_load_hit_rate", r.dcache_load_hit_rate);
    v.f64("dcache_store_hit_rate", r.dcache_store_hit_rate);
    v.u64("store_stall_cycles", r.store_stall_cycles);
    v.begin("wl");
    v.u32("reconfigurations", r.reconfigurations);
    v.u32("maxline_min_seen", r.maxline_min_seen);
    v.u32("maxline_max_seen", r.maxline_max_seen);
    v.f64("prediction_accuracy", r.prediction_accuracy);
    v.f64("avg_dirty_at_ckpt", r.avg_dirty_at_ckpt);
    v.f64("writebacks_per_on_period", r.writebacks_per_on_period);
    v.u64("dyn_maxline_raises", r.dyn_maxline_raises);
    v.end();
    v.begin("oracle");
    v.u64("consistency_checks", r.consistency_checks);
    v.u64("consistency_violations", r.consistency_violations);
    v.u64("load_value_mismatches", r.load_value_mismatches);
    v.b("final_state_correct", r.final_state_correct);
    v.end();
    v.begin("verify");
    v.u64("forced_outages", r.forced_outages);
    v.u64("register_restore_mismatches", r.register_restore_mismatches);
    v.b("divergence", r.divergence);
    v.b("has_first_divergence", r.has_first_divergence);
    v.str("first_divergence_kind", r.first_divergence_kind);
    v.u64("first_divergence_addr", r.first_divergence_addr);
    v.u64("first_divergence_cycle", r.first_divergence_cycle);
    v.u64("first_divergence_outage", r.first_divergence_outage);
    v.str("final_state_digest", r.final_state_digest);
    v.end();
    v.stats("stats", r.stats_json);
    v.u64("intervals_dropped", r.intervals_dropped);
    v.intervals("intervals", r.intervals);
    v.meter("energy_j", r.meter);
}

using energy::EnergyMeter;
using Intervals = std::vector<telemetry::IntervalRollup>;

/**
 * JSON output into an object whose '{' is already written: each
 * member on a new line after @p indent, or all on one line when
 * @p indent is empty.
 */
class JsonWriter
{
  public:
    JsonWriter(std::ostream &os, const char *in) : os_(os), indent_(in) {}

    void u64(const char *k, std::uint64_t v) { key(k) << v; }
    void u32(const char *k, unsigned v) { key(k) << v; }
    void b(const char *k, bool v) { key(k) << (v ? "true" : "false"); }

    void
    f64(const char *k, double v)
    {
        // JSON has no Inf/NaN literal: clamp to 0 so the record stays
        // readable (producers guard their ratios; this is the backstop).
        key(k) << util::fmtExact(std::isfinite(v) ? v : 0.0);
    }

    void
    str(const char *k, const std::string &v)
    {
        key(k) << '"' << util::jsonEscape(v) << '"';
    }

    void design(const char *k, DesignKind d) { str(k, designKindName(d)); }

    // Spliced in verbatim: stats_json is a compact JSON object, so the
    // reader's compacted copy round-trips byte-exactly.
    void
    stats(const char *k, const std::string &json)
    {
        key(k) << (json.empty() ? "{}" : json);
    }

    void
    begin(const char *k)
    {
        key(k) << '{';
        indent_ = "\n    ";
        first_ = true;
    }

    void end() { os_ << (indent_ = "\n  ") << '}'; }

    void
    intervals(const char *k, const Intervals &ivs)
    {
        key(k) << '[';
        for (std::size_t i = 0; i < ivs.size(); ++i) {
            os_ << (i ? ",\n    {" : "\n    {");
            JsonWriter one(os_, "");
            visitInterval(one, ivs[i]);
            os_ << '}';
        }
        os_ << (ivs.empty() ? "]" : "\n  ]");
    }

    void
    meter(const char *k, const EnergyMeter &m)
    {
        begin(k);
        for (std::size_t c = 0; c < EnergyMeter::kNumCategories; ++c) {
            const auto cat = static_cast<energy::EnergyCategory>(c);
            f64(energy::energyCategoryName(cat), m.get(cat));
        }
        f64("total", m.total());
        end();
    }

  private:
    std::ostream &
    key(const char *k)
    {
        if (!first_)
            os_ << ',';
        first_ = false;
        return os_ << indent_ << '"' << k << (*indent_ ? "\": " : "\":");
    }

    std::ostream &os_;
    const char *indent_;
    bool first_ = true;
};

/**
 * Strict JSON input: each hook looks its key up once in the current
 * block and fails on a missing key or a wrong type. The first failure
 * sticks and turns every later hook into a no-op.
 */
class JsonReader
{
  public:
    JsonReader(const util::JsonValue &obj, std::string *err)
        : root_(&obj), obj_(&obj), err_(err)
    {}

    bool ok() const { return ok_; }

    void
    fail(const std::string &what)
    {
        if (ok_ && err_)
            *err_ = what;
        ok_ = false;
    }

    void u64(const char *k, std::uint64_t &out) { count(k, out); }
    void u32(const char *k, unsigned &out) { count(k, out); }

    void
    f64(const char *k, double &out)
    {
        if (const util::JsonValue *v = want(k, Kind::Number, "number"))
            out = v->asDouble();
    }

    void
    b(const char *k, bool &out)
    {
        if (const util::JsonValue *v = want(k, Kind::Bool, "bool"))
            out = v->asBool();
    }

    void
    str(const char *k, std::string &out)
    {
        if (const util::JsonValue *v = want(k, Kind::String, "string"))
            out = v->asString();
    }

    void
    design(const char *k, DesignKind &out)
    {
        const util::JsonValue *v = want(k, Kind::String, "string");
        if (v && !designKindFromName(v->asString(), out))
            fail("unknown design '" + v->asString() + "' (valid: " +
                 designKindNameList() + ")");
    }

    void
    stats(const char *k, std::string &out)
    {
        if (const util::JsonValue *v = want(k, Kind::Object, "object")) {
            std::ostringstream compact;
            util::writeJsonCompact(compact, *v);
            out = compact.str();
        }
    }

    void
    begin(const char *k)
    {
        if (const util::JsonValue *v = want(k, Kind::Object, "object"))
            obj_ = v;
    }

    void end() { obj_ = root_; }

    void
    intervals(const char *k, Intervals &out)
    {
        const util::JsonValue *v = want(k, Kind::Array, "array");
        for (std::size_t i = 0; v && ok_ && i < v->items().size(); ++i) {
            const util::JsonValue &e = v->items()[i];
            if (!e.isObject())
                return fail(std::string("'") + k +
                            "' element is not an object");
            JsonReader one(e, err_);
            visitInterval(one, out.emplace_back());
            ok_ = one.ok();
        }
    }

    void
    meter(const char *k, EnergyMeter &m)
    {
        // "total" is derived: written, never read.
        begin(k);
        for (std::size_t c = 0; c < EnergyMeter::kNumCategories; ++c) {
            const auto cat = static_cast<energy::EnergyCategory>(c);
            double joules = 0.0;
            f64(energy::energyCategoryName(cat), joules);
            if (!(joules >= 0.0))
                fail(std::string("negative energy '") +
                     energy::energyCategoryName(cat) + "'");
            else if (ok_)
                m.add(cat, joules);
        }
        end();
    }

  private:
    using Kind = util::JsonValue::Kind;

    const util::JsonValue *
    want(const char *k, Kind kind, const char *what)
    {
        const util::JsonValue *v = ok_ ? obj_->get(k) : nullptr;
        if (ok_ && (!v || v->kind() != kind))
            fail(std::string("missing ") + what + " '" + k + "'");
        return ok_ ? v : nullptr;
    }

    /** A whole number that fits @p out's type, or a failure. */
    template <class T>
    void
    count(const char *k, T &out)
    {
        const util::JsonValue *v = want(k, Kind::Number, "number");
        if (!v)
            return;
        const std::optional<std::uint64_t> n = v->asU64();
        constexpr T kMax = std::numeric_limits<T>::max();
        if (n && *n <= kMax)
            out = static_cast<T>(*n);
        else
            fail("number '" + std::string(k) + "' is not an integer in [0, " +
                 std::to_string(kMax) + "]");
    }

    const util::JsonValue *root_;
    const util::JsonValue *obj_;
    std::string *err_;
    bool ok_ = true;
};

/** Snapshot "RES " section output: the field list in binary. */
struct SnapshotSaver
{
    SnapshotWriter &w;

    void u64(const char *, std::uint64_t v) { w.u64(v); }
    void u32(const char *, unsigned v) { w.u32(v); }
    void f64(const char *, double v) { w.f64(v); }
    void b(const char *, bool v) { w.b(v); }
    void str(const char *, const std::string &v) { w.str(v); }
    void stats(const char *, const std::string &v) { w.str(v); }
    void design(const char *, DesignKind d) { w.u8(std::uint8_t(d)); }
    void meter(const char *, const EnergyMeter &m) { m.saveState(w); }
    void begin(const char *) {}
    void end() {}

    void
    intervals(const char *, const Intervals &ivs)
    {
        w.u64(ivs.size());
        for (const telemetry::IntervalRollup &iv : ivs)
            visitInterval(*this, iv);
    }
};

/** Mirror of SnapshotSaver. */
struct SnapshotLoader
{
    SnapshotReader &r;

    void u64(const char *, std::uint64_t &v) { v = r.u64(); }
    void u32(const char *, unsigned &v) { v = r.u32(); }
    void f64(const char *, double &v) { v = r.f64(); }
    void b(const char *, bool &v) { v = r.b(); }
    void str(const char *, std::string &v) { v = r.str(); }
    void stats(const char *, std::string &v) { v = r.str(); }
    void design(const char *, DesignKind &d) { d = DesignKind(r.u8()); }
    void meter(const char *, EnergyMeter &m) { m.restoreState(r); }
    void begin(const char *) {}
    void end() {}

    void
    intervals(const char *, Intervals &ivs)
    {
        ivs.clear();
        for (std::uint64_t n = r.u64(); n > 0; --n)
            visitInterval(*this, ivs.emplace_back());
    }
};

} // anonymous namespace

void
writeRunResultJson(std::ostream &os, const RunResult &r)
{
    os << '{';
    JsonWriter w(os, "\n  ");
    w.u64("record_version", kRunRecordVersion);
    visitRunResult(w, r);
    os << "\n}\n";
}

bool
readRunResultJson(std::istream &is, RunResult &out, std::string *err)
{
    std::ostringstream buf;
    buf << is.rdbuf();

    util::JsonValue root;
    if (!util::parseJson(buf.str(), root, err))
        return false;

    // Version gate first: a record written by a different binary
    // generation is a cache miss, not a parse attempt.
    JsonReader rd(root, err);
    std::uint64_t version = 0;
    rd.u64("record_version", version);
    if (rd.ok() && version != kRunRecordVersion)
        rd.fail("record_version " + std::to_string(version) +
                " != expected " + std::to_string(kRunRecordVersion));
    RunResult r;
    visitRunResult(rd, r);
    if (!rd.ok())
        return false;
    out = std::move(r);
    return true;
}

void
saveRunResult(SnapshotWriter &w, const RunResult &r)
{
    w.section("RES ");
    SnapshotSaver s{ w };
    visitRunResult(s, r);
}

void
restoreRunResult(SnapshotReader &r, RunResult &out)
{
    r.section("RES ");
    SnapshotLoader l{ r };
    visitRunResult(l, out);
}

} // namespace nvp
} // namespace wlcache
