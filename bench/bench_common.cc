#include "bench/bench_common.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "sim/csv.hh"
#include "sim/logging.hh"
#include "util/stat_math.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/workloads.hh"

namespace wlcache {
namespace bench {

std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

bool
isMediaApp(const std::string &name)
{
    const auto *info = workloads::findWorkload(name);
    wlc_assert(info != nullptr, "unknown app '%s'", name.c_str());
    return std::string(info->suite) == "Media";
}

void
SpeedupTable::set(const std::string &series, const std::string &app,
                  double value)
{
    if (std::find(series_.begin(), series_.end(), series) ==
        series_.end())
        series_.push_back(series);
    values_[series][app] = value;
}

void
SpeedupTable::seriesOrder(std::vector<std::string> order)
{
    series_ = std::move(order);
}

double
SpeedupTable::gmean(const std::string &series,
                    const std::string &suite) const
{
    const auto it = values_.find(series);
    if (it == values_.end())
        return 0.0;
    std::vector<double> vals;
    for (const auto &[app, v] : it->second) {
        if (suite.empty() ||
            (suite == "Media") == isMediaApp(app))
            vals.push_back(v);
    }
    return util::geoMean(vals);
}

void
SpeedupTable::print() const
{
    std::cout << "=== " << title_ << " ===\n";
    util::TextTable table;
    std::vector<std::string> header{ "app" };
    for (const auto &s : series_)
        header.push_back(s);
    table.header(header);

    for (const auto &app : appNames()) {
        bool have = false;
        std::vector<std::string> row{ app };
        for (const auto &s : series_) {
            const auto sit = values_.find(s);
            const auto vit = sit == values_.end()
                ? std::map<std::string, double>::const_iterator{}
                : sit->second.find(app);
            if (sit != values_.end() && vit != sit->second.end()) {
                row.push_back(util::fmtDouble(vit->second, 3));
                have = true;
            } else {
                row.push_back("-");
            }
        }
        if (have)
            table.row(row);
    }
    auto gmean_row = [&](const std::string &label,
                         const std::string &suite) {
        std::vector<std::string> row{ label };
        for (const auto &s : series_)
            row.push_back(util::fmtDouble(gmean(s, suite), 3));
        table.row(row);
    };
    gmean_row("gmean(Media)", "Media");
    gmean_row("gmean(Mi)", "MiBench");
    gmean_row("gmean(Total)", "");
    table.print(std::cout);
    std::cout << '\n';
}

void
SpeedupTable::maybeWriteCsv(const std::string &slug) const
{
    const char *prefix = std::getenv("WLCACHE_BENCH_CSV");
    if (!prefix)
        return;
    std::ofstream out(std::string(prefix) + "_" + slug + ".csv");
    CsvWriter csv(out);
    std::vector<std::string> header{ "app" };
    for (const auto &s : series_)
        header.push_back(s);
    csv.row(header);
    for (const auto &app : appNames()) {
        std::vector<std::string> row{ app };
        for (const auto &s : series_) {
            const auto sit = values_.find(s);
            double v = 0.0;
            if (sit != values_.end()) {
                const auto vit = sit->second.find(app);
                if (vit != sit->second.end())
                    v = vit->second;
            }
            row.push_back(util::fmtDouble(v, 6));
        }
        csv.row(row);
    }
}

unsigned
benchScale()
{
    const char *s = std::getenv("WLCACHE_BENCH_SCALE");
    if (!s)
        return 1;
    const char *end = s + std::strlen(s);
    unsigned v = 0;
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc{} || ptr != end || v < 1)
        fatal("WLCACHE_BENCH_SCALE='%s' is not a whole number >= 1", s);
    return v;
}

std::vector<nvp::ExperimentSpec>
sweepSpecs(const explore::SweepSpec &spec)
{
    std::vector<explore::DesignPoint> expanded;
    std::string err;
    if (!explore::expandPoints(spec, expanded, &err))
        fatal("bad bench sweep '%s': %s", spec.name.c_str(),
              err.c_str());
    std::vector<nvp::ExperimentSpec> specs;
    specs.reserve(expanded.size());
    for (auto &p : expanded)
        specs.push_back(std::move(p.spec));
    return specs;
}

} // namespace bench
} // namespace wlcache
