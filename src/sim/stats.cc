#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace wlcache {
namespace stats {

std::string
Scalar::render() const
{
    // The pure-integer path renders the exact accumulator; mixed or
    // fractional values render like before (integers without a
    // fraction, everything else with 6 significant digits).
    if (value_ == 0.0)
        return std::to_string(u64_);
    const double total = value();
    if (total == static_cast<double>(static_cast<std::int64_t>(total)))
        return std::to_string(static_cast<std::int64_t>(total));
    return util::fmtDouble(total, 6);
}

void
Scalar::writeJson(std::ostream &os) const
{
    os << "{\"type\":\"scalar\",\"value\":";
    if (value_ == 0.0)
        os << u64_;   // Exact past 2^53.
    else
        os << util::fmtExact(value());
    os << ",\"desc\":\"" << util::jsonEscape(desc()) << "\"}";
}

void
Distribution::sample(double v)
{
    ++count_;
    sum_ += v;
    sum_sq_ += v * v;
    if (v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
    ++buckets_[bucketIndex(v)];
}

std::size_t
Distribution::bucketIndex(double v)
{
    if (!(v >= 1.0))
        return 0;   // Sub-unit, zero, and negative samples.
    const int l = std::ilogb(v);
    return std::min<std::size_t>(kNumBuckets - 1,
                                 static_cast<std::size_t>(l) + 1);
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    // All-equal samples have zero variance by definition; computing
    // it would amplify catastrophic cancellation in sum_sq_ - sum_^2/n
    // into a spurious nonzero stddev for large magnitudes.
    if (min_ == max_)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::string
Distribution::render() const
{
    return "n=" + std::to_string(count_) +
        " mean=" + util::fmtDouble(mean(), 4) +
        " min=" + util::fmtDouble(min(), 4) +
        " max=" + util::fmtDouble(max(), 4) +
        " sd=" + util::fmtDouble(stddev(), 4);
}

void
Distribution::writeJson(std::ostream &os) const
{
    os << "{\"type\":\"distribution\",\"count\":" << count_
       << ",\"sum\":" << util::fmtExact(sum_)
       << ",\"min\":" << util::fmtExact(min())
       << ",\"max\":" << util::fmtExact(max())
       << ",\"mean\":" << util::fmtExact(mean())
       << ",\"stddev\":" << util::fmtExact(stddev())
       << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        if (!first)
            os << ',';
        first = false;
        os << '[' << i << ',' << buckets_[i] << ']';
    }
    os << "],\"desc\":\"" << util::jsonEscape(desc()) << "\"}";
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    sum_sq_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    buckets_.fill(0);
}

void
Scalar::saveState(SnapshotWriter &w) const
{
    w.f64(value_);
    w.u64(u64_);
}

void
Scalar::restoreState(SnapshotReader &r)
{
    value_ = r.f64();
    u64_ = r.u64();
}

void
Distribution::saveState(SnapshotWriter &w) const
{
    w.u64(count_);
    w.f64(sum_);
    w.f64(sum_sq_);
    w.f64(min_);
    w.f64(max_);
    for (const std::uint64_t b : buckets_)
        w.u64(b);
}

void
Distribution::restoreState(SnapshotReader &r)
{
    count_ = r.u64();
    sum_ = r.f64();
    sum_sq_ = r.f64();
    min_ = r.f64();
    max_ = r.f64();
    for (std::uint64_t &b : buckets_)
        b = r.u64();
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    wlc_assert(find(name) == nullptr, "duplicate stat '%s'", name.c_str());
    auto stat = std::make_unique<Scalar>(name, desc);
    Scalar &ref = *stat;
    owned_.push_back(std::move(stat));
    return ref;
}

Distribution &
StatGroup::addDistribution(const std::string &name, const std::string &desc)
{
    wlc_assert(find(name) == nullptr, "duplicate stat '%s'", name.c_str());
    auto stat = std::make_unique<Distribution>(name, desc);
    Distribution &ref = *stat;
    owned_.push_back(std::move(stat));
    return ref;
}

void
StatGroup::addChild(StatGroup *child)
{
    wlc_assert(child != nullptr);
    children_.push_back(child);
}

void
StatGroup::resetAll()
{
    for (auto &s : owned_)
        s->reset();
    for (auto *c : children_)
        c->resetAll();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string full =
        prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &s : owned_) {
        os << util::padRight(full + "." + s->name(), 44) << ' '
           << util::padLeft(s->render(), 14) << "  # " << s->desc()
           << '\n';
    }
    for (const auto *c : children_)
        c->dump(os, full);
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << '{';
    bool first = true;
    for (const auto &s : owned_) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << util::jsonEscape(s->name()) << "\":";
        s->writeJson(os);
    }
    for (const auto *c : children_) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << util::jsonEscape(c->name()) << "\":";
        c->dumpJson(os);
    }
    os << '}';
}

void
StatGroup::saveState(SnapshotWriter &w) const
{
    w.section("STAT");
    w.u64(owned_.size());
    for (const auto &s : owned_)
        s->saveState(w);
    w.u64(children_.size());
    for (const auto *c : children_)
        c->saveState(w);
}

void
StatGroup::restoreState(SnapshotReader &r)
{
    r.section("STAT");
    const std::uint64_t n_owned = r.u64();
    wlc_assert(n_owned == owned_.size(),
               "stat group '%s': snapshot has %llu statistics, "
               "group has %zu",
               name_.c_str(),
               static_cast<unsigned long long>(n_owned),
               owned_.size());
    for (auto &s : owned_)
        s->restoreState(r);
    const std::uint64_t n_children = r.u64();
    wlc_assert(n_children == children_.size(),
               "stat group '%s': snapshot has %llu children, "
               "group has %zu",
               name_.c_str(),
               static_cast<unsigned long long>(n_children),
               children_.size());
    for (auto *c : children_)
        c->restoreState(r);
}

const Statistic *
StatGroup::find(const std::string &name) const
{
    for (const auto &s : owned_)
        if (s->name() == name)
            return s.get();
    return nullptr;
}

} // namespace stats
} // namespace wlcache
