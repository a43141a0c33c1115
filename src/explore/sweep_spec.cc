#include "explore/sweep_spec.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "explore/objectives.hh"
#include "mem/device/tech_profile.hh"
#include "sim/logging.hh"
#include "util/json.hh"
#include "util/stat_math.hh"
#include "util/strings.hh"
#include "workloads/workloads.hh"

namespace wlcache {
namespace explore {

std::string
ParamValue::display() const
{
    switch (kind) {
      case Kind::Number:
      case Kind::String:
        return text;
      case Kind::Bool:
        return b ? "true" : "false";
    }
    panic("unknown ParamValue kind");
}

ParamValue
numValue(double v)
{
    ParamValue out;
    out.kind = ParamValue::Kind::Number;
    out.num = v;
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1.0e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%g", v);
    out.text = buf;
    return out;
}

ParamValue
strValue(std::string s)
{
    ParamValue out;
    out.kind = ParamValue::Kind::String;
    out.text = std::move(s);
    return out;
}

ParamValue
boolValue(bool b)
{
    ParamValue out;
    out.kind = ParamValue::Kind::Bool;
    out.b = b;
    return out;
}

namespace {

/** ParamDef::int_max for each integral target field type. */
constexpr std::uint64_t kUintMax = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kSizeMax = std::numeric_limits<std::size_t>::max();

/** ParamDef check: a replacement-policy name. */
bool
checkReplName(const ParamValue &v, std::string &why)
{
    cache::ReplPolicy p;
    if (cache::replPolicyFromName(v.text, p))
        return true;
    why = "unknown replacement policy '" + v.text + "' (lru|fifo)";
    return false;
}

/**
 * One registered sweep parameter: where it applies (experiment spec
 * vs resolved SystemConfig), the value type it accepts, and extra
 * semantic validation beyond the type.
 */
struct ParamDef
{
    const char *name;
    std::string help;
    ParamValue::Kind type;
    /**
     * Integral params: the largest value the target field holds
     * (numbers must be whole and at most this). 0 for real params.
     */
    std::uint64_t int_max = 0;
    /** Minimum accepted numeric value. */
    double min_num = 0.0;
    void (*apply_spec)(nvp::ExperimentSpec &, const ParamValue &)
        = nullptr;
    void (*apply_cfg)(nvp::SystemConfig &, const ParamValue &)
        = nullptr;
    /** Extra check; fills @p why on rejection. Optional. */
    bool (*check)(const ParamValue &, std::string &why) = nullptr;
};

const std::vector<ParamDef> &
paramDefs()
{
    using PV = ParamValue;
    using Spec = nvp::ExperimentSpec;
    using Cfg = nvp::SystemConfig;
    static const std::vector<ParamDef> defs = {
        { "design", "cache design: " + nvp::designKindCliNameList(),
          PV::Kind::String, 0, 0.0,
          [](Spec &s, const PV &v) {
              const bool ok =
                  nvp::designKindFromCliName(v.text, s.design);
              wlc_assert(ok, "unvalidated design '%s'", v.text.c_str());
          },
          nullptr,
          [](const PV &v, std::string &why) {
              nvp::DesignKind k;
              if (nvp::designKindFromCliName(v.text, k))
                  return true;
              why = "unknown design '" + v.text + "' (valid: " +
                    nvp::designKindCliNameList() + ")";
              return false;
          } },
        { "workload", "benchmark kernel name (e.g. sha, qsort, FFT)",
          PV::Kind::String, 0, 0.0,
          [](Spec &s, const PV &v) { s.workload = v.text; },
          nullptr,
          [](const PV &v, std::string &why) {
              if (workloads::findWorkload(v.text))
                  return true;
              why = "unknown workload '" + v.text + "'";
              return false;
          } },
        { "power",
          "ambient environment: " + energy::powerCliNameList() +
              " (none/infinite: no outages)",
          PV::Kind::String, 0, 0.0,
          [](Spec &s, const PV &v) {
              const bool ok = energy::powerFromCliName(
                  v.text, s.power, s.no_failure);
              wlc_assert(ok, "unvalidated power '%s'", v.text.c_str());
          },
          nullptr,
          [](const PV &v, std::string &why) {
              energy::TraceKind k;
              bool nf;
              if (energy::powerFromCliName(v.text, k, nf))
                  return true;
              why = "unknown power trace '" + v.text + "' (valid: " +
                    energy::powerCliNameList() + ")";
              return false;
          } },
        { "scale", "workload input scale factor (>= 1)",
          PV::Kind::Number, kUintMax, 1.0,
          [](Spec &s, const PV &v) {
              s.scale = static_cast<unsigned>(v.num);
          },
          nullptr, nullptr },
        { "workload_seed", "workload input seed",
          PV::Kind::Number, kU64Max, 0.0,
          [](Spec &s, const PV &v) {
              s.workload_seed = static_cast<std::uint64_t>(v.num);
          },
          nullptr, nullptr },
        { "power_seed", "power trace seed",
          PV::Kind::Number, kU64Max, 0.0,
          [](Spec &s, const PV &v) {
              s.power_seed = static_cast<std::uint64_t>(v.num);
          },
          nullptr, nullptr },
        { "power_node",
          "fleet node id: derives a node-local power trace when "
          "power_jitter > 0",
          PV::Kind::Number, kU64Max, 0.0,
          [](Spec &s, const PV &v) {
              s.power_node = static_cast<std::uint64_t>(v.num);
          },
          nullptr, nullptr },
        { "power_jitter",
          "per-node power gain spread (0 disables trace derivation)",
          PV::Kind::Number, 0, 0.0,
          [](Spec &s, const PV &v) { s.power_jitter = v.num; },
          nullptr,
          [](const PV &v, std::string &why) {
              if (v.num <= 2.0)
                  return true;
              why = "power_jitter must be in [0, 2]";
              return false;
          } },
        { "dcache.size_bytes", "L1 D-cache size in bytes",
          PV::Kind::Number, kSizeMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.dcache.size_bytes = static_cast<std::size_t>(v.num);
          },
          nullptr },
        { "dcache.assoc", "L1 D-cache associativity",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.dcache.assoc = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "dcache.line_bytes",
          "L1 D-cache line size in bytes (power of two, <= 256)",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.dcache.line_bytes = static_cast<unsigned>(v.num);
          },
          [](const PV &v, std::string &why) {
              if (v.num <= cache::kMaxLineBytes &&
                  util::isPowerOfTwo(static_cast<std::uint64_t>(v.num)))
                  return true;
              why = "parameter 'dcache.line_bytes' wants a power of "
                    "two <= " + std::to_string(cache::kMaxLineBytes) +
                    ", got " + v.text;
              return false;
          } },
        { "dcache.repl", "L1 D-cache replacement policy: lru|fifo",
          PV::Kind::String, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              const bool ok = cache::replPolicyFromName(v.text, c.dcache.repl);
              wlc_assert(ok, "unvalidated policy '%s'", v.text.c_str());
          },
          checkReplName },
        { "icache.size_bytes", "L1 I-cache size in bytes",
          PV::Kind::Number, kSizeMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.icache.size_bytes = static_cast<std::size_t>(v.num);
          },
          nullptr },
        { "wl.maxline", "WL-Cache dirty-line bound (maxline)",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.wl.maxline = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "wl.waterline_gap",
          "WL-Cache waterline gap (waterline = maxline - gap)",
          PV::Kind::Number, kUintMax, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.wl.waterline_gap = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "wl.dq_size", "WL-Cache DirtyQueue slots",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.wl.dq_size = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "wl.dq_repl", "DirtyQueue replacement policy: lru|fifo",
          PV::Kind::String, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              const bool ok = cache::replPolicyFromName(v.text, c.wl.dq_repl);
              wlc_assert(ok, "unvalidated policy '%s'", v.text.c_str());
          },
          checkReplName },
        { "adaptive.enabled", "boot-time adaptive maxline management",
          PV::Kind::Bool, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) { c.adaptive.enabled = v.b; },
          nullptr },
        { "adaptive.maxline_min", "adaptive maxline lower bound",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.adaptive.maxline_min = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "adaptive.maxline_max", "adaptive maxline upper bound",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.adaptive.maxline_max = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "wl_dynamic", "WL-Cache opportunistic dynamic adaptation",
          PV::Kind::Bool, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) { c.wl_dynamic = v.b; },
          nullptr },
        { "platform.capacitance_f", "storage capacitor in farads",
          PV::Kind::Number, 0, 1.0e-12, nullptr,
          [](Cfg &c, const PV &v) {
              c.platform.capacitance_f = v.num;
          },
          nullptr },
        { "platform.vbackup", "JIT-checkpoint voltage threshold",
          PV::Kind::Number, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) { c.platform.vbackup = v.num; },
          nullptr },
        { "platform.von", "restore (boot) voltage", PV::Kind::Number,
          0, 0.0, nullptr,
          [](Cfg &c, const PV &v) { c.platform.von = v.num; },
          nullptr },
        { "max_outages", "give up after this many power failures",
          PV::Kind::Number, kU64Max, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.max_outages = static_cast<std::uint64_t>(v.num);
          },
          nullptr },
        { "nvm.tech",
          "NVM technology profile: reram|stt-ram|fram|flash "
          "(sets timing, energy, endurance, verify retries)",
          PV::Kind::String, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              const mem::NvmTechProfile *p =
                  mem::findTechProfile(v.text);
              wlc_assert(p != nullptr, "unvalidated tech '%s'",
                         v.text.c_str());
              mem::applyTechProfile(c.nvm, *p);
          },
          [](const PV &v, std::string &why) {
              if (mem::findTechProfile(v.text))
                  return true;
              why = "unknown NVM technology '" + v.text +
                    "' (reram|stt-ram|fram|flash)";
              return false;
          } },
        { "nvm.model", "NVM timing model: legacy|banked",
          PV::Kind::String, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              const bool ok =
                  mem::nvmModelFromName(v.text, c.nvm.model);
              wlc_assert(ok, "unvalidated model '%s'", v.text.c_str());
          },
          [](const PV &v, std::string &why) {
              mem::NvmModel m;
              if (mem::nvmModelFromName(v.text, m))
                  return true;
              why = "unknown NVM model '" + v.text +
                    "' (legacy|banked)";
              return false;
          } },
        { "nvm.banks", "NVM bank count (beat-interleaved)",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.nvm.banks = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "nvm.queue_depth",
          "per-bank request queue depth (banked model)",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.nvm.queue_depth = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "nvm.row_bytes", "NVM row-buffer size in bytes",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.nvm.row_bytes = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "nvm.track_wear", "track per-line NVM write counts",
          PV::Kind::Bool, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) { c.nvm.track_wear = v.b; },
          nullptr },
        { "nvm.endurance_writes",
          "per-line write-cycle budget (lifetime headroom baseline)",
          PV::Kind::Number, kU64Max, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.nvm.endurance_writes =
                  static_cast<std::uint64_t>(v.num);
          },
          nullptr },
        { "nvm.wear_scheme",
          "wear-leveling address rotation: none|rotate",
          PV::Kind::String, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              const bool ok =
                  mem::nvmWearSchemeFromName(v.text,
                                             c.nvm.wear_scheme);
              wlc_assert(ok, "unvalidated scheme '%s'",
                         v.text.c_str());
          },
          [](const PV &v, std::string &why) {
              mem::NvmWearScheme s;
              if (mem::nvmWearSchemeFromName(v.text, s))
                  return true;
              why = "unknown wear scheme '" + v.text +
                    "' (none|rotate)";
              return false;
          } },
        { "nvm.rotate_period_writes",
          "writes between wear-rotation steps",
          PV::Kind::Number, kU64Max, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.nvm.rotate_period_writes =
                  static_cast<std::uint64_t>(v.num);
          },
          nullptr },
        { "nvm.hybrid_lines",
          "STT-RAM hybrid fast-region slots (0 disables)",
          PV::Kind::Number, kUintMax, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.nvm.hybrid_lines = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "nvm.hybrid_promote_writes",
          "writes to a line before hybrid promotion",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.nvm.hybrid_promote_writes =
                  static_cast<unsigned>(v.num);
          },
          nullptr },
        { "log.region_lines",
          "WL-Log journal region size in record slots",
          PV::Kind::Number, kUintMax, 8.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.log.region_lines = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "log.segment_bytes",
          "WL-Log compaction-segment size in bytes",
          PV::Kind::Number, kUintMax, 1.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.log.segment_bytes = static_cast<unsigned>(v.num);
          },
          nullptr },
        { "log.compaction_watermark",
          "mapped-line fraction that triggers WL-Log compaction",
          PV::Kind::Number, 0, 0.0, nullptr,
          [](Cfg &c, const PV &v) {
              c.log.compaction_watermark = v.num;
          },
          [](const PV &v, std::string &why) {
              if (v.num > 0.0 && v.num < 1.0)
                  return true;
              why = "compaction_watermark must be in (0, 1)";
              return false;
          } },
    };
    return defs;
}

const ParamDef *
findParam(const std::string &name)
{
    for (const auto &d : paramDefs())
        if (name == d.name)
            return &d;
    return nullptr;
}

const char *
kindName(ParamValue::Kind k)
{
    switch (k) {
      case ParamValue::Kind::Number: return "a number";
      case ParamValue::Kind::String: return "a string";
      case ParamValue::Kind::Bool:   return "a boolean";
    }
    return "?";
}

/**
 * Validate @p v against @p def. @p path names the JSON location for
 * the diagnostic.
 */
bool
checkValue(const ParamDef &def, const ParamValue &v,
           const std::string &path, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = path + ": " + why;
        return false;
    };
    const std::string wants =
        std::string("parameter '") + def.name + "' wants ";
    if (v.kind != def.type)
        return fail(wants + kindName(def.type) + ", got " +
                    kindName(v.kind));
    if (v.kind == ParamValue::Kind::Number) {
        if (def.int_max && v.num != std::floor(v.num))
            return fail(wants + "an integer, got " + v.text);
        // Past the field's range the apply cast would be undefined.
        if (def.int_max && v.num >= static_cast<double>(def.int_max) + 1.0)
            return fail(wants + "a value <= " +
                        std::to_string(def.int_max) + ", got " + v.text);
        if (v.num < def.min_num)
            return fail(wants + "a value >= " +
                        numValue(def.min_num).text + ", got " + v.text);
    }
    std::string why;
    if (def.check && !def.check(v, why))
        return fail(why);
    return true;
}

bool
scalarFromJson(const util::JsonValue &jv, ParamValue &out,
               const std::string &path, std::string *err)
{
    switch (jv.kind()) {
      case util::JsonValue::Kind::Number:
        out.kind = ParamValue::Kind::Number;
        out.num = jv.asDouble();
        out.text = jv.numberToken();
        return true;
      case util::JsonValue::Kind::String:
        out.kind = ParamValue::Kind::String;
        out.text = jv.asString();
        return true;
      case util::JsonValue::Kind::Bool:
        out.kind = ParamValue::Kind::Bool;
        out.b = jv.asBool();
        return true;
      default:
        if (err)
            *err = path + ": expected a scalar "
                          "(number, string, or boolean)";
        return false;
    }
}

bool
hasBinding(const std::vector<ParamBinding> &bindings,
           const std::string &name)
{
    for (const ParamBinding &b : bindings)
        if (b.first == name)
            return true;
    return false;
}

bool
failAt(std::string *err, const std::string &path,
       const std::string &what)
{
    if (err)
        *err = path + ": " + what;
    return false;
}

/** Parse one {param: value, ...} object into ordered bindings. */
bool
parseBindings(const util::JsonValue &obj,
              std::vector<ParamBinding> &out, const std::string &path,
              std::string *err)
{
    if (!obj.isObject())
        return failAt(err, path, "expected an object of parameter values");
    for (const auto &[key, jv] : obj.members()) {
        const std::string vpath = path + "." + key;
        const ParamDef *def = findParam(key);
        if (!def)
            return failAt(err, vpath, "unknown parameter '" + key + "'");
        if (hasBinding(out, key))
            return failAt(err, vpath, "duplicate parameter '" + key + "'");
        ParamValue v;
        if (!scalarFromJson(jv, v, vpath, err) ||
            !checkValue(*def, v, vpath, err))
            return false;
        out.emplace_back(key, v);
    }
    return true;
}

/** Integral JSON number >= @p min, or a diagnostic. */
bool
wantCount(const util::JsonValue &v, const std::string &path,
          std::uint64_t min, std::uint64_t &out, std::string *err)
{
    const std::optional<std::uint64_t> n =
        v.isNumber() ? v.asU64() : std::nullopt;
    if (!n || *n < min)
        return failAt(err, path,
                      "wants an integer >= " + std::to_string(min) +
                          " and < 2^64");
    out = *n;
    return true;
}

/** Parse the fleet "mix" array: [{"workload", "weight"?}, ...]. */
bool
parseMix(const util::JsonValue &jv, const std::string &path,
         std::vector<MixEntry> &out, std::string *err)
{
    if (!jv.isArray() || jv.items().empty())
        return failAt(err, path, "wants a non-empty array");
    std::size_t i = 0;
    for (const util::JsonValue &e : jv.items()) {
        const std::string epath =
            path + "[" + std::to_string(i++) + "]";
        if (!e.isObject())
            return failAt(err, epath,
                          "wants {\"workload\", \"weight\"}");
        MixEntry entry;
        for (const auto &[ek, ev] : e.members()) {
            if (ek == "workload") {
                if (!ev.isString() ||
                    !workloads::findWorkload(ev.asString()))
                    return failAt(err, epath + ".workload",
                                  "unknown workload" +
                                      (ev.isString()
                                           ? " '" + ev.asString() + "'"
                                           : std::string()));
                entry.workload = ev.asString();
            } else if (ek == "weight") {
                std::uint64_t w = 0;
                if (!wantCount(ev, epath + ".weight", 1, w, err))
                    return false;
                if (w > 1024)
                    return failAt(err, epath + ".weight",
                                  "wants at most 1024");
                entry.weight = static_cast<unsigned>(w);
            } else {
                return failAt(err, epath + "." + ek, "unknown key");
            }
        }
        if (entry.workload.empty())
            return failAt(err, epath, "missing \"workload\"");
        out.push_back(std::move(entry));
    }
    return true;
}

/** Parameters a fleet sets per node, so its document may not bind. */
bool
isNodeParam(const std::string &name)
{
    return name == "power_node" || name == "power_jitter";
}

/**
 * A fleet's base, axes, points and derived targets must leave the
 * per-node parameters alone: the engine would overwrite them.
 */
bool
checkNoNodeBindings(const SweepSpec &spec, std::string *err)
{
    const std::string why = "a fleet sets power_node and power_jitter "
                            "per node; bind neither";
    for (const ParamBinding &b : spec.base)
        if (isNodeParam(b.first))
            return failAt(err, "$.base." + b.first, why);
    for (std::size_t i = 0; i < spec.axes.size(); ++i)
        if (isNodeParam(spec.axes[i].param))
            return failAt(err,
                          "$.axes[" + std::to_string(i) + "].param",
                          why);
    for (std::size_t p = 0; p < spec.points.size(); ++p)
        for (const ParamBinding &b : spec.points[p])
            if (isNodeParam(b.first))
                return failAt(err,
                              "$.points[" + std::to_string(p) + "]." +
                                  b.first,
                              why);
    for (std::size_t i = 0; i < spec.derived.size(); ++i)
        if (isNodeParam(spec.derived[i].param))
            return failAt(err,
                          "$.derived[" + std::to_string(i) + "].param",
                          why);
    return true;
}

} // anonymous namespace

std::vector<std::string>
SweepSpec::workloadPattern() const
{
    std::vector<std::string> pattern;
    for (const MixEntry &e : mix)
        for (unsigned i = 0; i < e.weight; ++i)
            pattern.push_back(e.workload);
    return pattern;
}

bool
parseSweepSpec(const std::string &json_text, SweepSpec &out,
               std::string *err)
{
    util::JsonValue root;
    std::string jerr;
    if (!util::parseJson(json_text, root, &jerr)) {
        if (err)
            *err = "$: not valid JSON: " + jerr;
        return false;
    }
    if (!root.isObject()) {
        if (err)
            *err = "$: sweep spec must be a JSON object";
        return false;
    }

    SweepSpec spec;
    for (const auto &[key, jv] : root.members()) {
        const std::string path = "$." + key;
        if (key == "name") {
            if (!jv.isString()) {
                if (err)
                    *err = path + ": expected a string";
                return false;
            }
            spec.name = jv.asString();
        } else if (key == "base") {
            if (!parseBindings(jv, spec.base, path, err))
                return false;
        } else if (key == "axes") {
            if (!jv.isArray()) {
                if (err)
                    *err = path + ": expected an array of axes";
                return false;
            }
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                const auto &aj = jv.items()[i];
                const std::string apath =
                    path + "[" + std::to_string(i) + "]";
                if (!aj.isObject()) {
                    if (err)
                        *err = apath + ": expected an axis object "
                                       "{param, values}";
                    return false;
                }
                Axis axis;
                const ParamDef *def = nullptr;
                for (const auto &[akey, av] : aj.members()) {
                    if (akey == "param") {
                        if (!av.isString()) {
                            if (err)
                                *err = apath + ".param: expected a "
                                               "string";
                            return false;
                        }
                        axis.param = av.asString();
                        def = findParam(axis.param);
                        if (!def) {
                            if (err)
                                *err = apath +
                                       ".param: unknown parameter '" +
                                       axis.param + "'";
                            return false;
                        }
                    } else if (akey == "values") {
                        if (!av.isArray() || av.items().empty()) {
                            if (err)
                                *err = apath + ".values: expected a "
                                               "non-empty array";
                            return false;
                        }
                        if (axis.param.empty()) {
                            if (err)
                                *err = apath + ": 'param' must come "
                                               "before 'values'";
                            return false;
                        }
                        for (std::size_t k = 0; k < av.items().size();
                             ++k) {
                            const std::string vpath =
                                apath + ".values[" +
                                std::to_string(k) + "]";
                            ParamValue v;
                            if (!scalarFromJson(av.items()[k], v,
                                                vpath, err))
                                return false;
                            if (!checkValue(*def, v, vpath, err))
                                return false;
                            axis.values.push_back(std::move(v));
                        }
                    } else {
                        if (err)
                            *err = apath + "." + akey +
                                   ": unknown axis key";
                        return false;
                    }
                }
                if (axis.param.empty() || axis.values.empty()) {
                    if (err)
                        *err = apath +
                               ": axis needs 'param' and 'values'";
                    return false;
                }
                if (hasBinding(spec.base, axis.param)) {
                    if (err)
                        *err = apath + ".param: '" + axis.param +
                               "' already bound in $.base";
                    return false;
                }
                for (const auto &other : spec.axes) {
                    if (other.param == axis.param) {
                        if (err)
                            *err = apath + ".param: duplicate axis "
                                           "over '" +
                                   axis.param + "'";
                        return false;
                    }
                }
                spec.axes.push_back(std::move(axis));
            }
        } else if (key == "points") {
            if (!jv.isArray()) {
                if (err)
                    *err = path + ": expected an array of point "
                                  "objects";
                return false;
            }
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                std::vector<ParamBinding> bindings;
                if (!parseBindings(jv.items()[i], bindings,
                                   path + "[" + std::to_string(i) +
                                       "]",
                                   err))
                    return false;
                spec.points.push_back(std::move(bindings));
            }
        } else if (key == "derived") {
            if (!jv.isArray()) {
                if (err)
                    *err = path + ": expected an array of derived "
                                  "parameters";
                return false;
            }
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                const auto &dj = jv.items()[i];
                const std::string dpath =
                    path + "[" + std::to_string(i) + "]";
                if (!dj.isObject()) {
                    if (err)
                        *err = dpath + ": expected an object "
                                       "{param, source, mul?, add?}";
                    return false;
                }
                DerivedParam d;
                for (const auto &[dkey, dv] : dj.members()) {
                    if (dkey == "param" || dkey == "source") {
                        if (!dv.isString()) {
                            if (err)
                                *err = dpath + "." + dkey +
                                       ": expected a string";
                            return false;
                        }
                        if (!findParam(dv.asString())) {
                            if (err)
                                *err = dpath + "." + dkey +
                                       ": unknown parameter '" +
                                       dv.asString() + "'";
                            return false;
                        }
                        (dkey == "param" ? d.param : d.source) =
                            dv.asString();
                    } else if (dkey == "mul" || dkey == "add") {
                        if (!dv.isNumber()) {
                            if (err)
                                *err = dpath + "." + dkey +
                                       ": expected a number";
                            return false;
                        }
                        (dkey == "mul" ? d.mul : d.add) =
                            dv.asDouble();
                    } else {
                        if (err)
                            *err = dpath + "." + dkey +
                                   ": unknown derived key";
                        return false;
                    }
                }
                if (d.param.empty() || d.source.empty()) {
                    if (err)
                        *err = dpath + ": derived parameter needs "
                                       "'param' and 'source'";
                    return false;
                }
                spec.derived.push_back(std::move(d));
            }
        } else if (key == "objectives") {
            if (!jv.isArray()) {
                if (err)
                    *err = path + ": expected an array of objective "
                                  "names";
                return false;
            }
            for (std::size_t i = 0; i < jv.items().size(); ++i) {
                const std::string opath =
                    path + "[" + std::to_string(i) + "]";
                if (!jv.items()[i].isString())
                    return failAt(err, opath, "expected a string");
                const std::string &name = jv.items()[i].asString();
                if (!findObjective(name))
                    return failAt(err, opath,
                                  "unknown objective '" + name +
                                      "' (valid: " +
                                      objectiveNameList() + ")");
                spec.objectives.push_back(name);
            }
        } else if (key == "nodes") {
            std::uint64_t n = 0;
            if (!wantCount(jv, path, 1, n, err))
                return false;
            if (n > 4096)
                return failAt(err, path, "wants at most 4096 nodes");
            spec.nodes = static_cast<unsigned>(n);
        } else if (key == "jitter") {
            if (!jv.isNumber())
                return failAt(err, path, "wants a number");
            const double j = jv.asDouble();
            if (j < 0.0 || j > 2.0)
                return failAt(err, path, "jitter must be in [0, 2]");
            spec.jitter = j;
        } else if (key == "deadline_cycles") {
            if (!wantCount(jv, path, 0, spec.deadline_cycles, err))
                return false;
        } else if (key == "mix") {
            if (!parseMix(jv, path, spec.mix, err))
                return false;
        } else {
            if (err)
                *err = path + ": unknown sweep-spec key";
            return false;
        }
    }

    // Cross-checks the per-key loops above cannot do.
    if (!spec.nodes) {
        for (const char *key : { "jitter", "deadline_cycles", "mix" })
            if (root.get(key))
                return failAt(err, std::string("$.") + key,
                              "only a fleet takes this key; add "
                              "\"nodes\"");
    } else if (!checkNoNodeBindings(spec, err)) {
        return false;
    }
    for (std::size_t i = 0; i < spec.derived.size(); ++i) {
        const auto &d = spec.derived[i];
        const std::string dpath = "$.derived[" + std::to_string(i) +
                                  "]";
        const ParamDef *target = findParam(d.param);
        if (target->type != ParamValue::Kind::Number &&
            (d.mul != 1.0 || d.add != 0.0)) {
            if (err)
                *err = dpath + ": mul/add need a numeric target, "
                               "but '" +
                       d.param + "' is not a number";
            return false;
        }
        if (hasBinding(spec.base, d.param)) {
            if (err)
                *err = dpath + ".param: '" + d.param +
                       "' already bound in $.base";
            return false;
        }
        for (const auto &axis : spec.axes) {
            if (axis.param == d.param) {
                if (err)
                    *err = dpath + ".param: '" + d.param +
                           "' already swept by an axis";
                return false;
            }
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (spec.derived[j].param == d.param) {
                if (err)
                    *err = dpath + ".param: duplicate derived "
                                   "parameter '" +
                           d.param + "'";
                return false;
            }
        }
        bool source_in_axes = false;
        for (const auto &axis : spec.axes)
            source_in_axes |= axis.param == d.source;
        if (!source_in_axes && !hasBinding(spec.base, d.source)) {
            if (err)
                *err = dpath + ".source: '" + d.source +
                       "' is neither a base parameter nor an axis";
            return false;
        }
        for (std::size_t p = 0; p < spec.points.size(); ++p) {
            if (hasBinding(spec.points[p], d.param)) {
                if (err)
                    *err = "$.points[" + std::to_string(p) + "]." +
                           d.param + ": derived parameter cannot be "
                                     "bound explicitly";
                return false;
            }
            if (!hasBinding(spec.base, d.source) &&
                !hasBinding(spec.points[p], d.source)) {
                if (err)
                    *err = "$.points[" + std::to_string(p) +
                           "]: derived source '" + d.source +
                           "' is not bound for this point";
                return false;
            }
        }
    }

    out = std::move(spec);
    return true;
}

namespace {

const ParamValue *
findValue(const std::vector<ParamBinding> &bindings,
          const std::string &name)
{
    // Latest binding wins (explicit points may override base).
    for (auto it = bindings.rbegin(); it != bindings.rend(); ++it)
        if (it->first == name)
            return &it->second;
    return nullptr;
}

/** Finish one point: derived params, id, and the runnable spec. */
bool
finishPoint(const SweepSpec &spec,
            std::vector<ParamBinding> bindings,
            std::size_t id_begin, DesignPoint &out, std::string *err)
{
    for (const auto &d : spec.derived) {
        const ParamValue *src = findValue(bindings, d.source);
        if (!src) {
            if (err)
                *err = "derived parameter '" + d.param +
                       "': source '" + d.source + "' is unbound";
            return false;
        }
        ParamValue v = src->kind == ParamValue::Kind::Number
                           ? numValue(src->num * d.mul + d.add)
                           : *src;
        const ParamDef *def = findParam(d.param);
        if (!checkValue(*def, v, "derived '" + d.param + "'", err))
            return false;
        bindings.emplace_back(d.param, std::move(v));
    }

    // Id from the point-specific bindings (base is shared).
    std::string id;
    for (std::size_t i = id_begin; i < bindings.size(); ++i) {
        if (!id.empty())
            id += ';';
        id += bindings[i].first + "=" + bindings[i].second.display();
    }
    if (id.empty())
        id = "base";

    // Build the experiment: spec-level params applied directly,
    // config-level params through the tweak hook (resolved after the
    // design preset, so the content-addressed key sees their effect).
    nvp::ExperimentSpec es;
    std::vector<ParamBinding> cfg_bindings;
    for (const auto &[name, value] : bindings) {
        const ParamDef *def = findParam(name);
        wlc_assert(def != nullptr, "unvalidated parameter '%s'",
                   name.c_str());
        if (def->apply_spec)
            def->apply_spec(es, value);
        else
            cfg_bindings.emplace_back(name, value);
    }
    if (!cfg_bindings.empty()) {
        es.tweak = [cfg_bindings](nvp::SystemConfig &cfg) {
            for (const auto &[name, value] : cfg_bindings)
                findParam(name)->apply_cfg(cfg, value);
        };
    }

    // Size, associativity and line size interact (and a derived
    // param may set one of them), so cache geometry is checked on the
    // resolved config, before any job runs, not per binding.
    const nvp::SystemConfig cfg = nvp::resolveConfig(es);
    const std::pair<const char *, const cache::CacheParams *> caches[] = {
        { "icache", &cfg.icache }, { "dcache", &cfg.dcache }
    };
    for (const auto &[name, params] : caches) {
        const std::string why = params->geometryError();
        if (why.empty())
            continue;
        if (err)
            *err = "point '" + id + "': invalid " + name +
                   " geometry (size_bytes=" +
                   std::to_string(params->size_bytes) +
                   ", assoc=" + std::to_string(params->assoc) +
                   ", line_bytes=" + std::to_string(params->line_bytes) +
                   "): " + why;
        return false;
    }

    out.id = std::move(id);
    out.params = std::move(bindings);
    out.spec = std::move(es);
    return true;
}

} // anonymous namespace

bool
expandPoints(const SweepSpec &spec, std::vector<DesignPoint> &out,
             std::string *err)
{
    std::vector<DesignPoint> points;

    // Cartesian product, first axis slowest.
    std::size_t total = spec.axes.empty() && spec.points.empty() ? 1
                                                                 : 0;
    if (!spec.axes.empty()) {
        total = 1;
        for (const auto &axis : spec.axes)
            total *= axis.values.size();
    }
    std::vector<std::size_t> idx(spec.axes.size(), 0);
    for (std::size_t n = 0; n < total; ++n) {
        std::vector<ParamBinding> bindings = spec.base;
        const std::size_t id_begin = bindings.size();
        for (std::size_t a = 0; a < spec.axes.size(); ++a)
            bindings.emplace_back(spec.axes[a].param,
                                  spec.axes[a].values[idx[a]]);
        DesignPoint p;
        if (!finishPoint(spec, std::move(bindings), id_begin, p, err))
            return false;
        points.push_back(std::move(p));
        for (std::size_t a = spec.axes.size(); a-- > 0;) {
            if (++idx[a] < spec.axes[a].values.size())
                break;
            idx[a] = 0;
        }
    }

    // Explicit points, appended after the product.
    for (const auto &extra : spec.points) {
        std::vector<ParamBinding> bindings = spec.base;
        const std::size_t id_begin = bindings.size();
        for (const auto &b : extra)
            bindings.push_back(b);
        DesignPoint p;
        if (!finishPoint(spec, std::move(bindings), id_begin, p, err))
            return false;
        points.push_back(std::move(p));
    }

    out = std::move(points);
    return true;
}

std::vector<std::pair<std::string, std::string>>
listParams()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &d : paramDefs())
        out.emplace_back(d.name, d.help);
    return out;
}

bool
isKnownParam(const std::string &name)
{
    return findParam(name) != nullptr;
}

} // namespace explore
} // namespace wlcache
