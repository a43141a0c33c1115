#include "nvp/run_json.hh"

#include <cinttypes>
#include <cmath>
#include <sstream>

#include "util/json.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

namespace {

/** Minimal JSON string escaping (names here are ASCII already). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
num(double v)
{
    // JSON has no Inf/NaN literal: "%.17g" would print "inf" and the
    // strict reader would reject the record forever after (a poisoned
    // cache entry). Clamp non-finite values to 0 — every producer is
    // expected to have guarded its ratios already, this is the last
    // line of defence.
    return util::fmtExact(std::isfinite(v) ? v : 0.0);
}

} // anonymous namespace

void
writeRunResultJson(std::ostream &os, const RunResult &r)
{
    os << "{\n";
    os << "  \"record_version\": " << kRunRecordVersion << ",\n";
    os << "  \"workload\": \"" << jsonEscape(r.workload) << "\",\n";
    os << "  \"design\": \"" << designKindName(r.design) << "\",\n";
    os << "  \"completed\": " << (r.completed ? "true" : "false")
       << ",\n";
    os << "  \"on_cycles\": " << r.on_cycles << ",\n";
    os << "  \"off_seconds\": " << num(r.off_seconds) << ",\n";
    os << "  \"total_seconds\": " << num(r.total_seconds) << ",\n";
    os << "  \"instructions\": " << r.instructions << ",\n";
    os << "  \"trace_events\": " << r.trace_events << ",\n";
    os << "  \"replayed_events\": " << r.replayed_events << ",\n";
    os << "  \"outages\": " << r.outages << ",\n";
    os << "  \"reserve_violations\": " << r.reserve_violations
       << ",\n";
    os << "  \"nvm_writes\": " << r.nvm_writes << ",\n";
    os << "  \"nvm_reads\": " << r.nvm_reads << ",\n";
    os << "  \"nvm_bytes_written\": " << r.nvm_bytes_written << ",\n";
    os << "  \"nvm_device\": {\n";
    os << "    \"bank_conflicts\": " << r.nvm_bank_conflicts << ",\n";
    os << "    \"queue_stall_cycles\": " << r.nvm_queue_stall_cycles
       << ",\n";
    os << "    \"turnaround_stall_cycles\": "
       << r.nvm_turnaround_stall_cycles << ",\n";
    os << "    \"wear_max\": " << r.nvm_wear_max << ",\n";
    os << "    \"wear_lines_touched\": " << r.nvm_wear_lines_touched
       << ",\n";
    os << "    \"lifetime_headroom\": " << r.nvm_lifetime_headroom
       << ",\n";
    os << "    \"write_p99_latency\": "
       << num(r.nvm_write_p99_latency) << ",\n";
    os << "    \"row_hits\": " << r.nvm_row_hits << ",\n";
    os << "    \"row_misses\": " << r.nvm_row_misses << "\n  },\n";
    os << "  \"nvm_log\": {\n";
    os << "    \"appended_records\": " << r.log_appended_records
       << ",\n";
    os << "    \"appended_bytes\": " << r.log_appended_bytes << ",\n";
    os << "    \"replays\": " << r.log_replays << ",\n";
    os << "    \"replayed_records\": " << r.log_replayed_records
       << ",\n";
    os << "    \"replayed_bytes\": " << r.log_replayed_bytes << ",\n";
    os << "    \"compactions\": " << r.log_compactions << ",\n";
    os << "    \"compacted_lines\": " << r.log_compacted_lines
       << ",\n";
    os << "    \"compacted_bytes\": " << r.log_compacted_bytes
       << ",\n";
    os << "    \"live_lines\": " << r.log_live_lines << "\n  },\n";
    os << "  \"dcache_load_hit_rate\": " << num(r.dcache_load_hit_rate)
       << ",\n";
    os << "  \"dcache_store_hit_rate\": "
       << num(r.dcache_store_hit_rate) << ",\n";
    os << "  \"store_stall_cycles\": " << r.store_stall_cycles
       << ",\n";
    os << "  \"wl\": {\n";
    os << "    \"reconfigurations\": " << r.reconfigurations << ",\n";
    os << "    \"maxline_min_seen\": " << r.maxline_min_seen << ",\n";
    os << "    \"maxline_max_seen\": " << r.maxline_max_seen << ",\n";
    os << "    \"prediction_accuracy\": "
       << num(r.prediction_accuracy) << ",\n";
    os << "    \"avg_dirty_at_ckpt\": " << num(r.avg_dirty_at_ckpt)
       << ",\n";
    os << "    \"writebacks_per_on_period\": "
       << num(r.writebacks_per_on_period) << ",\n";
    os << "    \"dyn_maxline_raises\": " << r.dyn_maxline_raises
       << "\n  },\n";
    os << "  \"oracle\": {\n";
    os << "    \"consistency_checks\": " << r.consistency_checks
       << ",\n";
    os << "    \"consistency_violations\": "
       << r.consistency_violations << ",\n";
    os << "    \"load_value_mismatches\": " << r.load_value_mismatches
       << ",\n";
    os << "    \"final_state_correct\": "
       << (r.final_state_correct ? "true" : "false") << "\n  },\n";
    os << "  \"verify\": {\n";
    os << "    \"forced_outages\": " << r.forced_outages << ",\n";
    os << "    \"register_restore_mismatches\": "
       << r.register_restore_mismatches << ",\n";
    os << "    \"divergence\": " << (r.divergence ? "true" : "false")
       << ",\n";
    os << "    \"has_first_divergence\": "
       << (r.has_first_divergence ? "true" : "false") << ",\n";
    os << "    \"first_divergence_kind\": \""
       << jsonEscape(r.first_divergence_kind) << "\",\n";
    os << "    \"first_divergence_addr\": " << r.first_divergence_addr
       << ",\n";
    os << "    \"first_divergence_cycle\": "
       << r.first_divergence_cycle << ",\n";
    os << "    \"first_divergence_outage\": "
       << r.first_divergence_outage << ",\n";
    os << "    \"final_state_digest\": \""
       << jsonEscape(r.final_state_digest) << "\"\n  },\n";
    // Embedded verbatim: stats_json is always a compact JSON object
    // (StatGroup::dumpJson or "{}"), so splicing it in keeps the
    // record well-formed and the reader round-trips it byte-exactly.
    os << "  \"stats\": "
       << (r.stats_json.empty() ? "{}" : r.stats_json) << ",\n";
    os << "  \"intervals_dropped\": " << r.intervals_dropped << ",\n";
    os << "  \"intervals\": [";
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        const telemetry::IntervalRollup &iv = r.intervals[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"index\":" << iv.index
           << ",\"start_cycle\":" << iv.start_cycle
           << ",\"end_cycle\":" << iv.end_cycle
           << ",\"instructions\":" << iv.instructions
           << ",\"nvm_writes\":" << iv.nvm_writes
           << ",\"cleans\":" << iv.cleans
           << ",\"dirty_high_water\":" << iv.dirty_high_water
           << ",\"checkpoint_j\":" << num(iv.checkpoint_j)
           << ",\"harvested_j\":" << num(iv.harvested_j) << '}';
    }
    os << (r.intervals.empty() ? "],\n" : "\n  ],\n");
    os << "  \"energy_j\": {\n";
    for (std::size_t c = 0; c < energy::EnergyMeter::kNumCategories;
         ++c) {
        const auto cat = static_cast<energy::EnergyCategory>(c);
        os << "    \"" << energy::energyCategoryName(cat)
           << "\": " << num(r.meter.get(cat));
        os << (c + 1 < energy::EnergyMeter::kNumCategories ? ",\n"
                                                           : ",\n");
    }
    os << "    \"total\": " << num(r.meter.total()) << "\n  }\n";
    os << "}\n";
}

namespace {

/** Field-extraction helpers: false (with a message) on any mismatch. */
struct Reader
{
    const util::JsonValue &root;
    std::string *err;

    bool
    fail(const std::string &what) const
    {
        if (err)
            *err = what;
        return false;
    }

    const util::JsonValue *
    want(const util::JsonValue &obj, const std::string &key,
         util::JsonValue::Kind kind) const
    {
        const util::JsonValue *v = obj.get(key);
        if (!v || v->kind() != kind)
            return nullptr;
        return v;
    }

    bool
    getU64(const util::JsonValue &obj, const std::string &key,
           std::uint64_t &out) const
    {
        const auto *v =
            want(obj, key, util::JsonValue::Kind::Number);
        if (!v)
            return fail("missing number '" + key + "'");
        out = v->asU64();
        return true;
    }

    bool
    getDouble(const util::JsonValue &obj, const std::string &key,
              double &out) const
    {
        const auto *v =
            want(obj, key, util::JsonValue::Kind::Number);
        if (!v)
            return fail("missing number '" + key + "'");
        out = v->asDouble();
        return true;
    }

    bool
    getBool(const util::JsonValue &obj, const std::string &key,
            bool &out) const
    {
        const auto *v = want(obj, key, util::JsonValue::Kind::Bool);
        if (!v)
            return fail("missing bool '" + key + "'");
        out = v->asBool();
        return true;
    }

    template <typename T>
    bool
    getUnsigned(const util::JsonValue &obj, const std::string &key,
                T &out) const
    {
        std::uint64_t v = 0;
        if (!getU64(obj, key, v))
            return false;
        out = static_cast<T>(v);
        return true;
    }
};

} // anonymous namespace

bool
readRunResultJson(std::istream &is, RunResult &out, std::string *err)
{
    std::ostringstream buf;
    buf << is.rdbuf();

    util::JsonValue root;
    if (!util::parseJson(buf.str(), root, err))
        return false;
    if (!root.isObject()) {
        if (err)
            *err = "record is not a JSON object";
        return false;
    }

    Reader rd{ root, err };
    RunResult r;

    // Version gate first: a record written by a different binary
    // generation is a cache miss, not a parse attempt.
    std::uint64_t version = 0;
    if (!rd.getU64(root, "record_version", version))
        return false;
    if (version != kRunRecordVersion) {
        return rd.fail("record_version " + std::to_string(version) +
                       " != expected " +
                       std::to_string(kRunRecordVersion));
    }

    const util::JsonValue *wv =
        rd.want(root, "workload", util::JsonValue::Kind::String);
    if (!wv)
        return rd.fail("missing string 'workload'");
    r.workload = wv->asString();

    const util::JsonValue *dv =
        rd.want(root, "design", util::JsonValue::Kind::String);
    if (!dv)
        return rd.fail("missing string 'design'");
    if (!designKindFromName(dv->asString(), r.design)) {
        return rd.fail("unknown design '" + dv->asString() +
                       "' (valid: " + designKindNameList() + ")");
    }

    if (!rd.getBool(root, "completed", r.completed) ||
        !rd.getU64(root, "on_cycles", r.on_cycles) ||
        !rd.getDouble(root, "off_seconds", r.off_seconds) ||
        !rd.getDouble(root, "total_seconds", r.total_seconds) ||
        !rd.getU64(root, "instructions", r.instructions) ||
        !rd.getU64(root, "trace_events", r.trace_events) ||
        !rd.getU64(root, "replayed_events", r.replayed_events) ||
        !rd.getU64(root, "outages", r.outages) ||
        !rd.getU64(root, "reserve_violations",
                   r.reserve_violations) ||
        !rd.getU64(root, "nvm_writes", r.nvm_writes) ||
        !rd.getU64(root, "nvm_reads", r.nvm_reads) ||
        !rd.getU64(root, "nvm_bytes_written", r.nvm_bytes_written) ||
        !rd.getDouble(root, "dcache_load_hit_rate",
                      r.dcache_load_hit_rate) ||
        !rd.getDouble(root, "dcache_store_hit_rate",
                      r.dcache_store_hit_rate) ||
        !rd.getU64(root, "store_stall_cycles", r.store_stall_cycles))
        return false;

    const util::JsonValue *dev =
        rd.want(root, "nvm_device", util::JsonValue::Kind::Object);
    if (!dev)
        return rd.fail("missing object 'nvm_device'");
    if (!rd.getU64(*dev, "bank_conflicts", r.nvm_bank_conflicts) ||
        !rd.getU64(*dev, "queue_stall_cycles",
                   r.nvm_queue_stall_cycles) ||
        !rd.getU64(*dev, "turnaround_stall_cycles",
                   r.nvm_turnaround_stall_cycles) ||
        !rd.getU64(*dev, "wear_max", r.nvm_wear_max) ||
        !rd.getU64(*dev, "wear_lines_touched",
                   r.nvm_wear_lines_touched) ||
        !rd.getU64(*dev, "lifetime_headroom",
                   r.nvm_lifetime_headroom) ||
        !rd.getDouble(*dev, "write_p99_latency",
                      r.nvm_write_p99_latency) ||
        !rd.getU64(*dev, "row_hits", r.nvm_row_hits) ||
        !rd.getU64(*dev, "row_misses", r.nvm_row_misses))
        return false;

    const util::JsonValue *nlog =
        rd.want(root, "nvm_log", util::JsonValue::Kind::Object);
    if (!nlog)
        return rd.fail("missing object 'nvm_log'");
    if (!rd.getU64(*nlog, "appended_records",
                   r.log_appended_records) ||
        !rd.getU64(*nlog, "appended_bytes", r.log_appended_bytes) ||
        !rd.getU64(*nlog, "replays", r.log_replays) ||
        !rd.getU64(*nlog, "replayed_records",
                   r.log_replayed_records) ||
        !rd.getU64(*nlog, "replayed_bytes", r.log_replayed_bytes) ||
        !rd.getU64(*nlog, "compactions", r.log_compactions) ||
        !rd.getU64(*nlog, "compacted_lines", r.log_compacted_lines) ||
        !rd.getU64(*nlog, "compacted_bytes", r.log_compacted_bytes) ||
        !rd.getU64(*nlog, "live_lines", r.log_live_lines))
        return false;

    const util::JsonValue *wl =
        rd.want(root, "wl", util::JsonValue::Kind::Object);
    if (!wl)
        return rd.fail("missing object 'wl'");
    if (!rd.getUnsigned(*wl, "reconfigurations",
                        r.reconfigurations) ||
        !rd.getUnsigned(*wl, "maxline_min_seen",
                        r.maxline_min_seen) ||
        !rd.getUnsigned(*wl, "maxline_max_seen",
                        r.maxline_max_seen) ||
        !rd.getDouble(*wl, "prediction_accuracy",
                      r.prediction_accuracy) ||
        !rd.getDouble(*wl, "avg_dirty_at_ckpt",
                      r.avg_dirty_at_ckpt) ||
        !rd.getDouble(*wl, "writebacks_per_on_period",
                      r.writebacks_per_on_period) ||
        !rd.getU64(*wl, "dyn_maxline_raises", r.dyn_maxline_raises))
        return false;

    const util::JsonValue *oracle =
        rd.want(root, "oracle", util::JsonValue::Kind::Object);
    if (!oracle)
        return rd.fail("missing object 'oracle'");
    if (!rd.getU64(*oracle, "consistency_checks",
                   r.consistency_checks) ||
        !rd.getU64(*oracle, "consistency_violations",
                   r.consistency_violations) ||
        !rd.getU64(*oracle, "load_value_mismatches",
                   r.load_value_mismatches) ||
        !rd.getBool(*oracle, "final_state_correct",
                    r.final_state_correct))
        return false;

    const util::JsonValue *verify =
        rd.want(root, "verify", util::JsonValue::Kind::Object);
    if (!verify)
        return rd.fail("missing object 'verify'");
    const util::JsonValue *kind = rd.want(
        *verify, "first_divergence_kind",
        util::JsonValue::Kind::String);
    if (!kind)
        return rd.fail("missing string 'first_divergence_kind'");
    r.first_divergence_kind = kind->asString();
    const util::JsonValue *digest = rd.want(
        *verify, "final_state_digest", util::JsonValue::Kind::String);
    if (!digest)
        return rd.fail("missing string 'final_state_digest'");
    r.final_state_digest = digest->asString();
    if (!rd.getU64(*verify, "forced_outages", r.forced_outages) ||
        !rd.getU64(*verify, "register_restore_mismatches",
                   r.register_restore_mismatches) ||
        !rd.getBool(*verify, "divergence", r.divergence) ||
        !rd.getBool(*verify, "has_first_divergence",
                    r.has_first_divergence) ||
        !rd.getU64(*verify, "first_divergence_addr",
                   r.first_divergence_addr) ||
        !rd.getU64(*verify, "first_divergence_cycle",
                   r.first_divergence_cycle) ||
        !rd.getU64(*verify, "first_divergence_outage",
                   r.first_divergence_outage))
        return false;

    const util::JsonValue *stats =
        rd.want(root, "stats", util::JsonValue::Kind::Object);
    if (!stats)
        return rd.fail("missing object 'stats'");
    {
        std::ostringstream compact;
        util::writeJsonCompact(compact, *stats);
        r.stats_json = compact.str();
    }

    if (!rd.getU64(root, "intervals_dropped", r.intervals_dropped))
        return false;
    const util::JsonValue *ivs =
        rd.want(root, "intervals", util::JsonValue::Kind::Array);
    if (!ivs)
        return rd.fail("missing array 'intervals'");
    for (const util::JsonValue &e : ivs->items()) {
        if (!e.isObject())
            return rd.fail("'intervals' element is not an object");
        telemetry::IntervalRollup iv;
        if (!rd.getU64(e, "index", iv.index) ||
            !rd.getU64(e, "start_cycle", iv.start_cycle) ||
            !rd.getU64(e, "end_cycle", iv.end_cycle) ||
            !rd.getU64(e, "instructions", iv.instructions) ||
            !rd.getU64(e, "nvm_writes", iv.nvm_writes) ||
            !rd.getU64(e, "cleans", iv.cleans) ||
            !rd.getUnsigned(e, "dirty_high_water",
                            iv.dirty_high_water) ||
            !rd.getDouble(e, "checkpoint_j", iv.checkpoint_j) ||
            !rd.getDouble(e, "harvested_j", iv.harvested_j))
            return false;
        r.intervals.push_back(iv);
    }

    const util::JsonValue *energy =
        rd.want(root, "energy_j", util::JsonValue::Kind::Object);
    if (!energy)
        return rd.fail("missing object 'energy_j'");
    for (std::size_t c = 0; c < energy::EnergyMeter::kNumCategories;
         ++c) {
        const auto cat = static_cast<energy::EnergyCategory>(c);
        double joules = 0.0;
        if (!rd.getDouble(*energy, energy::energyCategoryName(cat),
                          joules))
            return false;
        r.meter.add(cat, joules);
    }

    out = r;
    return true;
}

} // namespace nvp
} // namespace wlcache
