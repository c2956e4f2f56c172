#include "sim/stats.hh"

#include <algorithm>
#include <cstdio>

namespace duet
{

// Iterative glob with single-star backtracking: on mismatch after a
// `*`, re-anchor the star one character further. Linear in practice
// for the short component-path patterns `--stats-filter` sees.
bool
globMatch(const std::string &pat, const std::string &name)
{
    if (pat.empty())
        return true;
    std::size_t p = 0, n = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (n < name.size()) {
        if (p < pat.size() &&
            (pat[p] == '?' || pat[p] == name[n])) {
            ++p;
            ++n;
        } else if (p < pat.size() && pat[p] == '*') {
            star = p++;
            mark = n;
        } else if (star != std::string::npos) {
            p = star + 1;
            n = ++mark;
        } else {
            return false;
        }
    }
    while (p < pat.size() && pat[p] == '*')
        ++p;
    return p == pat.size();
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    if (p <= 0.0)
        return min_;
    if (p >= 1.0)
        return max_;
    // Target rank on [0, count-1]; interpolate linearly across the
    // covering bucket's rank span so equal-rank steps give
    // non-decreasing values (monotone in p).
    const double rank = p * static_cast<double>(count_ - 1);
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        const std::uint64_t n = buckets_[i];
        if (n == 0)
            continue;
        if (rank <= static_cast<double>(cum + n - 1)) {
            const std::uint64_t lo_u =
                i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
            const std::uint64_t hi_u =
                i == 0 ? 0
                       : (i == kBuckets - 1 ? max_
                                            : (std::uint64_t{1} << i) - 1);
            const double t =
                n > 1 ? (rank - static_cast<double>(cum)) /
                            static_cast<double>(n - 1)
                      : 0.0;
            const double lo = static_cast<double>(lo_u);
            const double hi = static_cast<double>(hi_u);
            double v = lo + t * (hi > lo ? hi - lo : 0.0);
            std::uint64_t out = static_cast<std::uint64_t>(v + 0.5);
            if (out < min_)
                out = min_;
            if (out > max_)
                out = max_;
            return out;
        }
        cum += n;
    }
    return max_;
}

std::vector<const StatRegistry::Named *>
StatRegistry::sortedView() const
{
    std::vector<const Named *> view;
    view.reserve(counters_.size());
    for (const auto &e : counters_)
        view.push_back(&e);
    std::stable_sort(view.begin(), view.end(),
                     [](const Named *a, const Named *b) {
                         return a->first < b->first;
                     });
    // Equal names are in registration order; keep the last of each run,
    // writing the survivors in place.
    std::size_t out = 0;
    for (std::size_t i = 0; i < view.size(); ++i) {
        if (i + 1 < view.size() && view[i + 1]->first == view[i]->first)
            continue;
        view[out++] = view[i];
    }
    view.resize(out);
    return view;
}

void
StatRegistry::dump(std::ostream &os, const std::string &filter) const
{
    for (const Named *e : sortedView()) {
        if (!globMatch(filter, e->first))
            continue;
        os << e->first << " " << e->second->value() << "\n";
    }
}

// Stat names are component paths ("core0.l2.hits") — no quotes, backslashes
// or control characters — but escape defensively anyway.
std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
    return out;
}

void
StatRegistry::dumpJson(std::ostream &os, const std::string &filter) const
{
    os << "{\"counters\": {";
    bool first = true;
    for (const Named *e : sortedView()) {
        if (!globMatch(filter, e->first))
            continue;
        os << (first ? "" : ", ") << jsonQuote(e->first) << ": "
           << e->second->value();
        first = false;
    }
    os << "}, \"samples\": {}}";
}

} // namespace duet
