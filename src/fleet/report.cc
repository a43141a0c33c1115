#include "fleet/report.hh"

#include <ostream>

#include "explore/report.hh"
#include "sim/csv.hh"
#include "util/table.hh"

namespace wlcache {
namespace fleet {

using explore::findBinding;
using explore::fmtObjective;
using explore::paramColumns;

namespace {

std::string
pointLabel(const FleetPointOutcome &o)
{
    return o.point.id.empty() ? "base" : o.point.id;
}

} // anonymous namespace

void
writeFleetCsv(std::ostream &os, const FleetReport &report)
{
    CsvWriter csv(os);
    const auto cols = paramColumns(report.outcomes);

    std::vector<std::string> header{ "id" };
    for (const auto &c : cols)
        header.push_back(c);
    for (const auto &name : report.objective_names)
        header.push_back(name);
    header.push_back("frontier");
    header.push_back("completed_nodes");
    header.push_back("total_instructions");
    header.push_back("total_nvm_writes");
    header.push_back("total_outages");
    csv.row(header);

    for (const auto &o : report.outcomes) {
        std::vector<std::string> row{ o.point.id };
        for (const auto &c : cols) {
            const explore::ParamValue *v = findBinding(o.point, c);
            row.push_back(v ? v->display() : "-");
        }
        for (const double obj : o.objectives)
            row.push_back(fmtObjective(obj));
        row.push_back(o.on_frontier ? "1" : "0");
        row.push_back(std::to_string(o.completed_nodes));
        row.push_back(std::to_string(o.total_instructions));
        row.push_back(std::to_string(o.total_nvm_writes));
        row.push_back(std::to_string(o.total_outages));
        csv.row(row);
    }
}

void
writeFleetMarkdown(std::ostream &os, const FleetReport &report)
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
        const FleetPointOutcome &o = report.outcomes[idx];
        os << "| " << ++n << " | `" << pointLabel(o) << "` |";
        for (const double obj : o.objectives)
            os << " " << fmtObjective(obj) << " |";
        os << " " << o.completed_nodes << "/" << o.nodes.size()
           << " |\n";
    }

    if (!report.frontier.empty()) {
        const FleetPointOutcome &w =
            report.outcomes[report.frontier.front()];
        os << "\n## Per-node breakdown: `" << pointLabel(w)
           << "`\n\n";
        os << "| node | workload | progress (insn/s) | outages | "
              "nvm writes | completed |\n";
        os << "|------|----------|-------------------|---------|"
              "------------|-----------|\n";
        for (const NodeResult &nr : w.nodes) {
            os << "| " << nr.node << " | " << nr.workload << " | "
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
writeFleetSummaryText(std::ostream &os, const FleetReport &report)
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
        const FleetPointOutcome &o = report.outcomes[idx];
        std::vector<std::string> row{ std::to_string(++n),
                                      pointLabel(o) };
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

} // namespace fleet
} // namespace wlcache
