/**
 * @file
 * A hierarchical metrics registry: named counters and values keyed
 * by dotted paths ("summary.hmean.32K2w"), serialisable as nested
 * JSON. This is the machine-readable counterpart of the figure
 * tables — each figure fills one registry from its table and
 * sim/report writes it as JSON, and tools/sipt-claims asserts the
 * paper's claim envelopes against the result.
 *
 * The registry preserves insertion order at every level, so a
 * registry filled deterministically serialises to the same bytes.
 */

#ifndef SIPT_COMMON_METRICS_HH
#define SIPT_COMMON_METRICS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"

namespace sipt
{

/**
 * Insertion-ordered registry of dotted-path metrics. Counters are
 * exact 64-bit tallies; values are doubles (rates, means, joules).
 * Paths are validated on first use: non-empty segments separated
 * by single dots.
 */
class MetricsRegistry
{
  public:
    /** Set (or overwrite) an integer counter. */
    void setCounter(const std::string &path, std::uint64_t value);

    /** Set (or overwrite) a floating-point value. */
    void setValue(const std::string &path, double value);

    /**
     * Serialise as nested objects: "a.b.c" becomes {"a":{"b":
     * {"c":...}}}. Panics when one path is a prefix of another
     * ("a" and "a.b" both registered) — that is a programming
     * error, not a data error.
     */
    Json toJson() const;

  private:
    struct Entry
    {
        std::string path;
        bool isCounter = true;
        std::uint64_t count = 0;
        double value = 0.0;
    };

    Entry &upsert(const std::string &path);

    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace sipt

#endif // SIPT_COMMON_METRICS_HH
