/**
 * @file
 * Lightweight statistics collection.
 *
 * Components own Counter objects registered under hierarchical names; a
 * StatRegistry dumps them in a stable, sorted order. Histogram is the
 * service telemetry's latency distribution.
 */

#ifndef DUET_SIM_STATS_HH
#define DUET_SIM_STATS_HH

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace duet
{

/** Quote @p s as a JSON string literal (escapes ", \\ and control chars). */
std::string jsonQuote(const std::string &s);

/** Match @p name against a shell-style glob @p pat (`*` and `?`). An
 *  empty pattern matches everything — the `--stats-filter` default. */
bool globMatch(const std::string &pat, const std::string &name);

/** A monotonically increasing 64-bit counter. Incrementing is a direct
 *  u64 add — no registry, map, or string work on the access path; names
 *  are attached once at registration time. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    /** Bulk increment, for callers accumulating batches (flit counts,
     *  burst sizes) — same cost as inc(), clearer intent. */
    void add(std::uint64_t n) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Fixed-bucket log2 histogram of u64 samples. Bucket i holds values
 * whose bit width is i (bucket 0: the value 0; the top bucket
 * saturates), so recording is a bit_width plus one increment — cheap
 * enough for per-request service latency in the hot serve loop.
 * percentile() interpolates linearly inside the covering bucket and is
 * monotone in p by construction (cumulative walk + per-bucket linear
 * ramp + clamp to [min,max]), so p50 <= p95 <= p99 always holds.
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 64;

    void
    record(std::uint64_t v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
        ++buckets_[bucketOf(v)];
    }

    void
    reset()
    {
        count_ = sum_ = min_ = max_ = 0;
        for (auto &b : buckets_)
            b = 0;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return min_; }
    std::uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }
    std::uint64_t bucketCount(unsigned i) const { return buckets_[i]; }

    /** Value at quantile @p p in [0,1]; 0 on an empty histogram. */
    std::uint64_t percentile(double p) const;

    static unsigned
    bucketOf(std::uint64_t v)
    {
        unsigned w = static_cast<unsigned>(std::bit_width(v));
        return w < kBuckets ? w : kBuckets - 1;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t buckets_[kBuckets] = {};
};

/**
 * Registry of named counters. Components register pointers; the registry
 * does not own them, so register objects that outlive the registry's use.
 *
 * Registration appends to a flat vector (one per-System burst at
 * construction); the sorted, deduplicated view the dumpers need is built
 * once per dump, not maintained per registration in a std::map. Re-using
 * a name replaces the earlier registration, matching the old map
 * semantics (last registration wins, names unique in the output).
 */
class StatRegistry
{
  public:
    void registerCounter(const std::string &name, const Counter *c)
    {
        counters_.emplace_back(name, c);
    }

    /** Dump all registered counters, sorted by name; @p filter is a glob
     *  over stat names (empty = all). */
    void dump(std::ostream &os,
              const std::string &filter = std::string()) const;

    /**
     * Dump all registered counters as one JSON object:
     * `{"counters": {name: value, ...}, "samples": {}}`. The empty
     * `samples` section keeps the schema consumers already parse.
     */
    void dumpJson(std::ostream &os,
                  const std::string &filter = std::string()) const;

    /** Linear lookup, newest first (last registration wins, like the
     *  old map's overwrite). Lookups are test/report-path only. */
    const Counter *
    findCounter(const std::string &name) const
    {
        for (auto it = counters_.rbegin(); it != counters_.rend(); ++it)
            if (it->first == name)
                return it->second;
        return nullptr;
    }

  private:
    using Named = std::pair<std::string, const Counter *>;

    /** Sorted-by-name view with duplicate names collapsed to the most
     *  recent registration — byte-identical iteration order to the old
     *  std::map storage. */
    std::vector<const Named *> sortedView() const;

    std::vector<Named> counters_;
};

} // namespace duet

#endif // DUET_SIM_STATS_HH
