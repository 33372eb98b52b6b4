/**
 * @file
 * The campaign runner every campaign engine is built on (sweep, blind
 * and evolved fuzzing, cross-VM trials), plus the field-list codec
 * that turns a task's record into its journal payload.
 *
 * For each task i of a range, the runner owns every step that is the
 * same across engines: it skips the task when the shard mask gives it
 * to another shard; restores its record from the checkpoint journal
 * (unless the run is traced, since a restored task has no events, or
 * the caller marks the journal untrusted); and otherwise builds a
 * fresh machine with spec.instantiate(hashCombine(seed, i)), attaches
 * a Tracer with tid i, calls the engine's task body, reads the Dimm's
 * device totals into the record and journals it. The range fans out
 * over parallelMapOrdered and comes back in index order, with the
 * traces appended to the merged stream in the same order — so a
 * campaign's result is bit-identical for any job count, any shard
 * mask that covers it, and any kill/resume point.
 *
 * Record codec: a record type lists its fields once, as a tuple of
 * member pointers in `recordFields<T>`. Integers encode in decimal,
 * bools as 0/1, doubles through encodeDouble, a vector as its count
 * followed by its elements and a nested record as its own fields, all
 * separated by single spaces.
 */

#ifndef RHO_HAMMER_CAMPAIGN_HH
#define RHO_HAMMER_CAMPAIGN_HH

#include <algorithm>
#include <charconv>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/checkpoint.hh"
#include "common/parallel.hh"
#include "memsys/memory_system.hh"
#include "trace/metrics.hh"

namespace rho
{

/** Field list (member pointers, payload order) of a journaled record. */
template <typename T>
inline constexpr auto recordFields = nullptr;

template <typename T>
concept CodecRecord =
    !std::is_same_v<std::remove_cv_t<decltype(recordFields<T>)>,
                    std::nullptr_t>;

template <>
inline constexpr auto recordFields<FlipRecord> =
    std::tuple{&FlipRecord::bank, &FlipRecord::row, &FlipRecord::bitOffset,
               &FlipRecord::toOne, &FlipRecord::when};

/** Device totals a task reads off its Dimm once the body returns. */
struct DeviceTotals
{
    std::uint64_t acts = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t rfmCommands = 0;
    std::uint64_t pracAlerts = 0;
};

template <>
inline constexpr auto recordFields<DeviceTotals> =
    std::tuple{&DeviceTotals::acts, &DeviceTotals::trrRefreshes,
               &DeviceTotals::rfmCommands, &DeviceTotals::pracAlerts};

/** Add one task's unified counters under the keys every engine uses. */
inline void
addTaskMetrics(MetricsRegistry &metrics, const DeviceTotals &device,
               std::uint64_t dram_accesses, std::uint64_t flips)
{
    metrics.add("dram.acts", device.acts);
    metrics.add("dram.refreshes.trr", device.trrRefreshes);
    metrics.add("dram.refreshes.rfm", device.rfmCommands);
    metrics.add("dram.alerts.prac", device.pracAlerts);
    metrics.add("cpu.dram_accesses", dram_accesses);
    metrics.add("hammer.flips", flips);
}

namespace codec
{

template <typename T>
inline constexpr bool isVector = false;

template <typename T, typename A>
inline constexpr bool isVector<std::vector<T, A>> = true;

template <typename T>
void
put(std::string &out, const T &x)
{
    if constexpr (isVector<T>) {
        put(out, x.size());
        for (const auto &e : x)
            put(out, e);
    } else if constexpr (CodecRecord<T>) {
        std::apply([&](auto... m) { (put(out, x.*m), ...); },
                   recordFields<T>);
    } else {
        if (!out.empty())
            out += ' ';
        if constexpr (std::is_same_v<T, bool>) {
            out += x ? '1' : '0';
        } else if constexpr (std::is_floating_point_v<T>) {
            out += encodeDouble(x);
        } else {
            char buf[24];
            out.append(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
        }
    }
}

/** Consume and return the next space-separated token ("" at the end). */
inline std::string_view
token(std::string_view &in)
{
    in.remove_prefix(std::min(in.find_first_not_of(' '), in.size()));
    std::string_view tok = in.substr(0, in.find(' '));
    in.remove_prefix(tok.size());
    return tok;
}

template <typename T>
bool
get(std::string_view &in, T &x)
{
    if constexpr (isVector<T>) {
        std::size_t n = 0;
        if (!get(in, n) || n > in.size()) // each element takes >1 byte
            return false;
        x.resize(n);
        for (auto &e : x)
            if (!get(in, e))
                return false;
        return true;
    } else if constexpr (CodecRecord<T>) {
        return std::apply([&](auto... m) { return (get(in, x.*m) && ...); },
                          recordFields<T>);
    } else {
        std::string_view tok = token(in);
        if constexpr (std::is_floating_point_v<T>) {
            std::optional<double> d = decodeDouble(std::string(tok));
            x = d.value_or(0.0);
            return d.has_value();
        } else {
            std::conditional_t<std::is_same_v<T, bool>, unsigned, T> v{};
            const char *end = tok.data() + tok.size();
            auto [p, ec] = std::from_chars(tok.data(), end, v);
            x = static_cast<T>(v);
            return ec == std::errc{} && p == end;
        }
    }
}

} // namespace codec

/** A record's journal payload. */
template <CodecRecord T>
std::string
encodeRecord(const T &record)
{
    std::string out;
    codec::put(out, record);
    return out;
}

/** Inverse of encodeRecord; nullopt on malformed or trailing input. */
template <CodecRecord T>
std::optional<T>
decodeRecord(std::string_view payload)
{
    T record{};
    if (!codec::get(payload, record) || !codec::token(payload).empty())
        return std::nullopt;
    return record;
}

/** How a Campaign schedules, traces and journals its tasks. */
struct CampaignOptions
{
    unsigned jobs = 0; //!< worker threads; 0 = hardware_concurrency

    /** Shard mask: only tasks with mask[i] != 0 run (null: all). */
    const std::vector<std::uint8_t> *mask = nullptr;

    /** Merged event stream; tasks are traced only when it is set and
     *  spec.trace.enabled. */
    std::vector<TraceEvent> *trace = nullptr;

    std::string journalPath; //!< checkpoint journal; empty = none
    std::uint64_t journalKey = 0;
    const char *journalKind = "";
    JournalOptions journal{};
};

/** Runs task ranges of one campaign; Record is one task's outcome. */
template <typename Record>
class Campaign
{
  public:
    /** A task that ran or was restored, handed back in index order. */
    struct Task
    {
        unsigned index = 0;
        Record record{};
        std::vector<TraceEvent> events; //!< moved to the merged stream
    };

    Campaign(const SystemSpec &spec, std::uint64_t seed,
             CampaignOptions options)
        : spec(spec), seed(seed), opts(std::move(options))
    {
        if (!opts.journalPath.empty())
            journal_ = std::make_unique<TaskJournal>(
                opts.journalPath, opts.journalKey, opts.journalKind,
                opts.journal);
    }

    /**
     * Run tasks [first, first + count). `body(i, sys, task_seed)`
     * simulates task i on the fresh machine `sys` and returns its
     * record; the runner fills in a `device` member when the record
     * has one. With `trust_journal` false, journaled tasks re-execute
     * (and are recorded again).
     */
    template <typename Body>
    std::vector<Task>
    run(unsigned first, unsigned count, Body &&body,
        bool trust_journal = true)
    {
        using Clock = std::chrono::steady_clock;
        std::vector<unsigned> indices;
        for (unsigned i = first; i < first + count; ++i)
            if (!opts.mask || (*opts.mask)[i])
                indices.push_back(i);

        const bool tracing = opts.trace && spec.trace.enabled;
        // Host ms per executed task; task k writes only slot k, and a
        // restored task leaves its slot negative.
        std::vector<double> wall_ms(indices.size(), -1.0);

        auto task = [&](unsigned k) -> Task {
            Task t;
            t.index = indices[k];
            if constexpr (CodecRecord<Record>) {
                std::optional<std::string> payload;
                if (journal_ && trust_journal && !tracing)
                    payload = journal_->lookup(t.index);
                if (payload) {
                    if (auto r = decodeRecord<Record>(*payload)) {
                        t.record = std::move(*r);
                        return t;
                    }
                }
            }
            auto start = Clock::now();
            const std::uint64_t task_seed = hashCombine(seed, t.index);
            MemorySystem sys = spec.instantiate(task_seed);
            std::optional<Tracer> tracer;
            if (tracing) {
                tracer.emplace(spec.trace);
                tracer->setTid(static_cast<std::uint16_t>(t.index));
                sys.attachTracer(&*tracer);
            }
            t.record = body(t.index, sys, task_seed);
            if constexpr (requires(Record &r) { r.device; }) {
                const Dimm &d = sys.dimm();
                t.record.device = {d.totalActs(), d.trrRefreshCount(),
                                   d.rfmCommandCount(),
                                   d.pracAlertCount()};
            }
            if (tracing) {
                t.events = tracer->events();
                sys.attachTracer(nullptr);
            }
            if constexpr (CodecRecord<Record>) {
                if (journal_)
                    journal_->record(t.index, encodeRecord(t.record));
            }
            wall_ms[k] = std::chrono::duration<double, std::milli>(
                             Clock::now() - start)
                             .count();
            return t;
        };

        ParallelStats fan;
        auto tasks = parallelMapOrdered(
            static_cast<unsigned>(indices.size()), opts.jobs, task, &fan);
        totals.jobs = fan.jobs;
        totals.steals += fan.steals;
        totals.wallNs += fan.wallNs;
        for (double ms : wall_ms) {
            if (ms < 0.0) {
                ++totals.tasksRestored;
            } else {
                ++totals.tasksRun;
                totals.taskWallMs.add(ms);
            }
        }
        for (Task &t : tasks) {
            if (tracing)
                opts.trace->insert(opts.trace->end(), t.events.begin(),
                                   t.events.end());
            t.events = {};
        }
        return tasks;
    }

    /** The open checkpoint journal, or null. */
    TaskJournal *journal() const { return journal_.get(); }

    /**
     * Scheduling counters summed over every run() call: tasksRun and
     * taskWallMs count executed tasks only (not masked, not restored).
     */
    const ParallelStats &stats() const { return totals; }

  private:
    const SystemSpec &spec;
    const std::uint64_t seed;
    CampaignOptions opts;
    std::unique_ptr<TaskJournal> journal_;
    ParallelStats totals;
};

} // namespace rho

#endif // RHO_HAMMER_CAMPAIGN_HH
