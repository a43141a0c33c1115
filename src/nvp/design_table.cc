/**
 * @file
 * The design table: one row per DesignKind holding everything that
 * makes a cache design what it is — its names, platform preset,
 * threshold rule, I-cache kind and D-cache factory. Adding a design is
 * one DesignKind plus one row here.
 */

#include "nvp/system_config.hh"

#include <algorithm>
#include <iterator>

#include "cache/no_cache.hh"
#include "cache/nv_cache.hh"
#include "cache/nvsram_practical_cache.hh"
#include "cache/replay_cache.hh"
#include "cache/vcache_wt.hh"
#include "cache/wt_buffered_cache.hh"
#include "core/wl_log_cache.hh"
#include "sim/logging.hh"
#include "util/strings.hh"

namespace wlcache {
namespace nvp {

namespace {

/**
 * D-cache factory for designs constructed as
 * (cfg.dcache, cfg.*Extra..., nvm, meter).
 */
template <typename Cache, auto... Extra>
std::unique_ptr<cache::DataCache>
build(const SystemConfig &cfg, mem::NvmMemory &nvm,
      energy::EnergyMeter *meter)
{
    return std::make_unique<Cache>(cfg.dcache, cfg.*Extra..., nvm,
                                   meter);
}

std::unique_ptr<cache::DataCache>
buildNoCache(const SystemConfig &, mem::NvmMemory &nvm,
             energy::EnergyMeter *meter)
{
    return std::make_unique<cache::NoCache>(nvm, meter);
}

/** SRAM ways from cfg.dcache, NV ways of the ReRAM-class preset. */
std::unique_ptr<cache::DataCache>
buildNvsramPractical(const SystemConfig &cfg, mem::NvmMemory &nvm,
                     energy::EnergyMeter *meter)
{
    return std::make_unique<cache::NvsramPracticalCache>(
        cfg.dcache, cache::nvCacheParams(), cfg.nvsram_practical, nvm,
        meter);
}

using cache::ICacheKind;
using SC = SystemConfig;

constexpr DesignRow kDesignTable[] = {
    // kind, figure name, CLI name, CLI alias,
    // { Von, Vbackup[, NV arrays, backup_full] }, WL family,
    // threshold rule, I-cache kind, D-cache factory.
    { DesignKind::NoCache, "NVP-NoCache", "nocache", nullptr,
      { 3.3, 2.9 }, false, ThresholdRule::Static, ICacheKind::None,
      buildNoCache },
    { DesignKind::VCacheWT, "VCache-WT", "wt", "vcache-wt",
      { 3.3, 2.9 }, false, ThresholdRule::Static,
      ICacheKind::Volatile, build<cache::VCacheWT> },
    { DesignKind::NVCacheWB, "NVCache-WB", "nvcache", "nvc",
      { 3.3, 2.9, true }, false, ThresholdRule::Static,
      ICacheKind::NonVolatile, build<cache::NVCacheWB> },
    // Table 2: NVSRAM checkpoints at 3.1 V and restores at 3.5 V (the
    // full-cache backup needs the largest margins).
    { DesignKind::NvsramWB, "NVSRAM-WB", "nvsram", nullptr,
      { 3.5, 3.1 }, false, ThresholdRule::WorstCaseBackup,
      ICacheKind::WarmRestore,
      build<cache::NvsramCacheWB, &SC::nvsram> },
    { DesignKind::NvsramFull, "NVSRAM-full", "nvsram-full", nullptr,
      { 3.5, 3.1, false, true }, false, ThresholdRule::WorstCaseBackup,
      ICacheKind::WarmRestore,
      build<cache::NvsramCacheWB, &SC::nvsram> },
    // Table 1: medium hardware cost and a medium energy buffer — only
    // the SRAM half needs migration headroom.
    { DesignKind::NvsramPractical, "NVSRAM-practical", "nvsram-practical",
      "nvsram-prac", { 3.4, 3.0 }, false,
      ThresholdRule::WorstCaseBackup, ICacheKind::Volatile,
      buildNvsramPractical },
    { DesignKind::Replay, "ReplayCache", "replay", nullptr,
      { 3.3, 2.9 }, false, ThresholdRule::Static,
      ICacheKind::Volatile, build<cache::ReplayCacheModel, &SC::replay> },
    // §3.3 alternative: needs a bigger margin than plain WT to drain
    // the buffer failure-atomically.
    { DesignKind::WtBuffered, "WT+Buffer", "wtbuf", "wt-buffer",
      { 3.3, 2.95 }, false, ThresholdRule::Static,
      ICacheKind::Volatile,
      build<cache::WtBufferedCache, &SC::wt_buffer> },
    // Table 2: WL 2.95~3.1 / 3.3~3.5, tracked per maxline via the wl_*
    // threshold schedule. WL-Log keeps the same preset: its checkpoint
    // appends cost slightly more per line (header bytes), which the
    // schedule absorbs via the design's own checkpointEnergyBound().
    { DesignKind::WL, "WL-Cache", "wl", nullptr,
      { 3.3, 2.95 }, true, ThresholdRule::WlSchedule,
      ICacheKind::Volatile, build<core::WLCache, &SC::wl> },
    { DesignKind::WLLog, "WL-Log", "wllog", "wl-log",
      { 3.3, 2.95 }, true, ThresholdRule::WlSchedule,
      ICacheKind::Volatile, build<core::WlLogCache, &SC::wl, &SC::log> },
};

constexpr bool
tableIsWellFormed()
{
    for (std::size_t i = 0; i < std::size(kDesignTable); ++i) {
        const DesignRow &r = kDesignTable[i];
        if (static_cast<std::size_t>(r.kind) != i ||
            r.wl_family != (r.thresholds == ThresholdRule::WlSchedule))
            return false;
    }
    return true;
}

static_assert(std::size(kDesignTable) ==
                  static_cast<std::size_t>(DesignKind::WLLog) + 1,
              "every DesignKind needs a design table row");
static_assert(tableIsWellFormed(),
              "rows must follow DesignKind order, and exactly the WL "
              "family uses the WL threshold schedule");

/** One name column of every row, joined with @p sep. */
std::string
joinColumn(const char *DesignRow::*column, const char *sep)
{
    std::string list;
    for (const DesignRow &r : kDesignTable)
        list += (list.empty() ? "" : sep) + std::string(r.*column);
    return list;
}

} // anonymous namespace

const DesignRow &
designRow(DesignKind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    if (i >= std::size(kDesignTable))
        panic("unknown DesignKind %d", static_cast<int>(kind));
    return kDesignTable[i];
}

std::span<const DesignRow>
designTable()
{
    return kDesignTable;
}

const char *
designKindName(DesignKind kind)
{
    return designRow(kind).name;
}

bool
isWlFamily(DesignKind kind)
{
    return designRow(kind).wl_family;
}

bool
designKindFromName(const std::string &name, DesignKind &out)
{
    for (const DesignRow &r : kDesignTable) {
        if (name == r.name) {
            out = r.kind;
            return true;
        }
    }
    return false;
}

bool
designKindFromCliName(const std::string &name, DesignKind &out)
{
    const std::string n = util::toLower(name);
    for (const DesignRow &r : kDesignTable) {
        if (n == r.cli_name || (r.cli_alias && n == r.cli_alias)) {
            out = r.kind;
            return true;
        }
    }
    return false;
}

std::string
designKindNameList()
{
    return joinColumn(&DesignRow::name, ", ");
}

std::string
designKindCliNameList()
{
    return joinColumn(&DesignRow::cli_name, "|");
}

Thresholds
wlThresholds(const PlatformParams &p, unsigned maxline)
{
    const double steps = static_cast<double>(
        maxline > p.wl_threshold_anchor ? maxline - p.wl_threshold_anchor
                                        : 0);
    return { std::min(p.wl_vbackup_base + p.wl_vbackup_step * steps,
                      p.vmax),
             std::min(p.wl_von_base + p.wl_von_step * steps, p.vmax) };
}

SystemConfig
SystemConfig::forDesign(DesignKind kind)
{
    const DesignRow &row = designRow(kind);
    SystemConfig cfg;
    cfg.design = kind;
    // The paper's FIFO I-side replacement matters little; keep LRU
    // defaults on both and let experiments override.
    cfg.dcache = row.preset.nv_arrays ? cache::nvCacheParams()
                                      : cache::sramCacheParams();
    cfg.icache = cfg.dcache;
    cfg.platform.von = row.preset.von;
    cfg.platform.vbackup = row.preset.vbackup;
    cfg.nvsram.backup_full = row.preset.backup_full;
    if (row.wl_family) {
        cfg.adaptive.enabled = true;
        // Paper §6.6: observed maxline range 2..6 with |DQ| = 8.
        cfg.adaptive.maxline_min = 2;
        cfg.adaptive.maxline_max = cfg.wl.dq_size - 2;
    }
    return cfg;
}

} // namespace nvp
} // namespace wlcache
