/**
 * @file
 * MetricsRegistry: named hierarchical counters unifying the scattered
 * per-subsystem statistics (PerfCounters, ParallelStats, Dimm totals
 * through trace/metrics_adapters.hh, plus any caller's own counters)
 * under dotted names — "dram.acts", "cpu.cache_hits",
 * "parallel.tasks_run" — so benches, examples and campaign drivers can
 * dump or merge one object instead of several.
 *
 * Counters are integer-valued and stored in a sorted map, so
 * iteration (and therefore dump()) order is deterministic. Real-valued
 * statistics (simulated ns) are stored as integer nanoseconds.
 */

#ifndef RHO_TRACE_METRICS_HH
#define RHO_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>

namespace rho
{

/** Ordered collection of named monotonic counters. */
class MetricsRegistry
{
  public:
    /** Add `delta` to counter `name` (creating it at zero). */
    void
    add(const std::string &name, std::uint64_t delta)
    {
        counters_[name] += delta;
    }

    /** Overwrite counter `name`. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
    }

    /** Current value; zero for unknown names. */
    std::uint64_t
    value(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    bool
    has(const std::string &name) const
    {
        return counters_.count(name) != 0;
    }

    /** Counter-wise sum of another registry into this one. */
    void
    merge(const MetricsRegistry &other)
    {
        for (const auto &[name, v] : other.counters_)
            counters_[name] += v;
    }

    std::size_t size() const { return counters_.size(); }
    void clear() { counters_.clear(); }

    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /**
     * Multi-line "  name = value" dump in name order, optionally
     * restricted to counters under `prefix` (dotted-name subtree).
     */
    std::string dump(const std::string &prefix = "") const;

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace rho

#endif // RHO_TRACE_METRICS_HH
