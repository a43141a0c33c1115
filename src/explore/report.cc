#include "explore/report.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "sim/csv.hh"
#include "util/table.hh"

namespace wlcache {
namespace explore {

namespace {

/** Deterministic short-form double ("%.9g") for report cells. */
std::string
fmtObjective(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Last binding of @p name in @p p, or null. */
const ParamValue *
findBinding(const DesignPoint &p, const std::string &name)
{
    for (auto it = p.params.rbegin(); it != p.params.rend(); ++it)
        if (it->first == name)
            return &it->second;
    return nullptr;
}

/**
 * Write the CSV columns both document kinds share — point id, one
 * column per swept parameter (union across points, first-appearance
 * order; '-' where a point does not bind one), the objective values
 * and the frontier flag — followed by @p extra_header's columns,
 * filled per point by @p extra.
 */
void
writePointsCsv(std::ostream &os, const ExploreReport &report,
               const std::vector<std::string> &extra_header,
               void (*extra)(const PointOutcome &,
                             std::vector<std::string> &))
{
    std::vector<std::string> cols;
    for (const auto &o : report.outcomes)
        for (const auto &binding : o.point.params)
            if (std::find(cols.begin(), cols.end(), binding.first) ==
                cols.end())
                cols.push_back(binding.first);

    CsvWriter csv(os);
    std::vector<std::string> header{ "id" };
    header.insert(header.end(), cols.begin(), cols.end());
    header.insert(header.end(), report.objective_names.begin(),
                  report.objective_names.end());
    header.push_back("frontier");
    header.insert(header.end(), extra_header.begin(),
                  extra_header.end());
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
        extra(o, row);
        csv.row(row);
    }
}

/** A fleet point's label: its id, or "base" for the base point. */
std::string
fleetLabel(const PointOutcome &o)
{
    return o.point.id.empty() ? "base" : o.point.id;
}

} // anonymous namespace

void
writeCsv(std::ostream &os, const ExploreReport &report)
{
    writePointsCsv(os, report, { "completed", "run_key" },
                   [](const PointOutcome &o,
                      std::vector<std::string> &row) {
                       const NodeResult &n = o.nodes.front();
                       row.push_back(n.result.completed ? "1" : "0");
                       row.push_back(n.run_key);
                   });
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
        os << o.nodes.front().run_key
           << (cache_dir.empty() ? "" : ".json") << "` |\n";
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
    os << "runs: " << report.total_runs << ", " << report.cache_hits
       << " cached, " << report.executed << " executed\n";
}

void
writeFleetCsv(std::ostream &os, const ExploreReport &report)
{
    writePointsCsv(
        os, report,
        { "completed_nodes", "total_instructions", "total_nvm_writes",
          "total_outages" },
        [](const PointOutcome &o, std::vector<std::string> &row) {
            row.push_back(std::to_string(o.completed_nodes));
            row.push_back(std::to_string(o.total_instructions));
            row.push_back(std::to_string(o.total_nvm_writes));
            row.push_back(std::to_string(o.total_outages));
        });
}

void
writeFleetMarkdown(std::ostream &os, const ExploreReport &report)
{
    os << "# Fleet report: " << report.name << "\n\n";
    os << "- fleet: " << report.nodes << " node"
       << (report.nodes == 1 ? "" : "s")
       << ", power jitter " << fmtObjective(report.jitter)
       << " (shared environment envelope, node-seeded gain)\n";
    os << "- points: " << report.outcomes.size() << " evaluated, "
       << report.frontier.size() << " on the frontier\n";
    os << "- objectives (all minimized):";
    for (const auto &name : report.objective_names)
        os << " " << name;
    os << "\n\n";

    os << "| # | point |";
    for (const auto &name : report.objective_names)
        os << " " << name << " |";
    os << " completed |\n";
    os << "|---|-------|";
    for (std::size_t i = 0; i < report.objective_names.size(); ++i)
        os << "---|";
    os << "---|\n";

    std::size_t n = 0;
    for (const std::size_t idx : report.frontier) {
        const PointOutcome &o = report.outcomes[idx];
        os << "| " << ++n << " | `" << fleetLabel(o) << "` |";
        for (const double obj : o.objectives)
            os << " " << fmtObjective(obj) << " |";
        os << " " << o.completed_nodes << "/" << o.nodes.size()
           << " |\n";
    }

    if (!report.frontier.empty()) {
        const PointOutcome &w = report.outcomes[report.frontier.front()];
        os << "\n## Per-node breakdown: `" << fleetLabel(w)
           << "`\n\n";
        os << "| node | workload | progress (insn/s) | outages | "
              "nvm writes | completed |\n";
        os << "|------|----------|-------------------|---------|"
              "------------|-----------|\n";
        for (const NodeResult &nr : w.nodes) {
            os << "| " << nr.node << " | " << nr.spec.workload << " | "
               << fmtObjective(nodeProgressRate(nr.result)) << " | "
               << nr.result.outages << " | " << nr.result.nvm_writes
               << " | " << (nr.result.completed ? "yes" : "no")
               << " |\n";
        }
    }

    os << "\nEvery per-node run is an ordinary content-addressed "
          "single-node experiment (spec lines `power_node`/"
          "`power_jitter` select the derived trace), so re-running "
          "the same fleet spec against the same cache executes "
          "nothing.\n";
}

void
writeFleetSummaryText(std::ostream &os, const ExploreReport &report)
{
    os << "=== " << report.name << ": " << report.nodes
       << " nodes x " << report.outcomes.size() << " points, "
       << report.frontier.size() << " on the frontier ===\n";
    util::TextTable t;
    std::vector<std::string> header{ "#", "point" };
    for (const auto &name : report.objective_names)
        header.push_back(name);
    header.push_back("completed");
    t.header(header);
    std::size_t n = 0;
    for (const std::size_t idx : report.frontier) {
        const PointOutcome &o = report.outcomes[idx];
        std::vector<std::string> row{ std::to_string(++n),
                                      fleetLabel(o) };
        for (const double v : o.objectives)
            row.push_back(fmtObjective(v));
        row.push_back(std::to_string(o.completed_nodes) + "/" +
                      std::to_string(o.nodes.size()));
        t.row(row);
    }
    t.print(os);
    os << "runs: " << report.total_runs << " total, "
       << report.cache_hits << " cached, " << report.executed
       << " executed\n";
}

} // namespace explore
} // namespace wlcache
