#include "explore/report.hh"

#include <cstdio>
#include <ostream>

#include "sim/csv.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace wlcache {
namespace explore {

std::string
fmtObjective(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

const ParamValue *
findBinding(const DesignPoint &p, const std::string &name)
{
    for (auto it = p.params.rbegin(); it != p.params.rend(); ++it)
        if (it->first == name)
            return &it->second;
    return nullptr;
}

void
writeCsv(std::ostream &os, const ExploreReport &report)
{
    CsvWriter csv(os);
    const auto cols = paramColumns(report.outcomes);

    std::vector<std::string> header{ "id" };
    for (const auto &c : cols)
        header.push_back(c);
    for (const auto &name : report.objective_names)
        header.push_back(name);
    header.push_back("frontier");
    header.push_back("completed");
    header.push_back("run_key");
    csv.row(header);

    for (const auto &o : report.outcomes) {
        std::vector<std::string> row{ o.point.id };
        for (const auto &c : cols) {
            const ParamValue *v = findBinding(o.point, c);
            row.push_back(v ? v->display() : "-");
        }
        for (const double obj : o.objectives)
            row.push_back(fmtObjective(obj));
        row.push_back(o.on_frontier ? "1" : "0");
        row.push_back(o.result.completed ? "1" : "0");
        row.push_back(o.run_key);
        csv.row(row);
    }
}

void
writeFrontierMarkdown(std::ostream &os, const ExploreReport &report,
                      const std::string &cache_dir)
{
    os << "# Exploration frontier: " << report.name << "\n\n";
    os << "- search: exhaustive, " << report.outcomes.size()
       << " points\n";
    os << "- objectives (all minimized):";
    for (const auto &name : report.objective_names)
        os << " " << name;
    os << "\n- frontier: " << report.frontier.size() << " point"
       << (report.frontier.size() == 1 ? "" : "s") << "\n\n";

    os << "| # | point |";
    for (const auto &name : report.objective_names)
        os << " " << name << " |";
    os << " run record |\n";
    os << "|---|-------|";
    for (std::size_t i = 0; i < report.objective_names.size(); ++i)
        os << "---|";
    os << "---|\n";

    std::size_t n = 0;
    for (const std::size_t idx : report.frontier) {
        const PointOutcome &o = report.outcomes[idx];
        os << "| " << ++n << " | `" << o.point.id << "` |";
        for (const double obj : o.objectives)
            os << " " << fmtObjective(obj) << " |";
        os << " `";
        if (!cache_dir.empty())
            os << cache_dir << "/";
        os << o.run_key << (cache_dir.empty() ? "" : ".json")
           << "` |\n";
    }

    os << "\nEach run record is the content-addressed run JSON in "
          "the result cache; it carries the point's full structured "
          "stats tree and per-power-interval rollups. Re-running the "
          "same spec with the same `--cache-dir` serves every point "
          "from the cache, and `wlcache_sim --timeline` on a "
          "frontier point's parameters captures its event "
          "timeline.\n";
}

void
writeSummaryText(std::ostream &os, const ExploreReport &report)
{
    os << "=== " << report.name << ": " << report.outcomes.size()
       << " points, " << report.frontier.size()
       << " on the frontier ===\n";
    util::TextTable t;
    std::vector<std::string> header{ "#", "point" };
    for (const auto &name : report.objective_names)
        header.push_back(name);
    t.header(header);
    std::size_t n = 0;
    for (const std::size_t idx : report.frontier) {
        const PointOutcome &o = report.outcomes[idx];
        std::vector<std::string> row{ std::to_string(++n),
                                      o.point.id };
        for (const double v : o.objectives)
            row.push_back(fmtObjective(v));
        t.row(row);
    }
    t.print(os);
    os << "runs: " << report.outcomes.size() << ", "
       << report.cache_hits << " cached, " << report.executed
       << " executed\n";
}

} // namespace explore
} // namespace wlcache
