/**
 * @file
 * Shared plumbing of the repo benchmark: options, host-time helpers,
 * the end-to-end and per-layer metric sets, and the record-and-replay
 * machinery the traced run uses to split host time by layer.
 *
 * Every layer is measured from outside, by timing calls into its
 * public functions. Nothing in the simulator is instrumented.
 */

#ifndef RHOBENCH_HARNESS_HH
#define RHOBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/table.hh"
#include "hammer/hammer_session.hh"
#include "memsys/memory_system.hh"

namespace rhobench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wall time of one call, in seconds. */
template <typename Fn>
double
timed(Fn &&fn)
{
    Clock::time_point t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;       //!< smoke scale: every size shrunk
    bool failCheck = false;  //!< smoke: force one check to fail
    std::string commit = "unknown";
    std::string tmpDir;      //!< per-run temp directory
};

/** Worker threads or processes every workload uses. */
inline constexpr unsigned benchJobs = 2;

double median(std::vector<double> v);

/**
 * Operations attempted and failed, plus the human-readable lines a run
 * prints before its JSON result.
 */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    /** One checked operation; it fails when !ok. */
    void expect(bool ok, const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * End-to-end accounting, tracing off. Each workload runs the same
 * fixed round of tasks again and again until the timed calls add up to
 * the run's seconds; the rates are whole-window totals over the sum of
 * the timed calls. Correctness checks and bookkeeping run between the
 * timed calls, outside them.
 */
struct EndToEnd
{
    double wallS = 0.0;          //!< sum of the timed calls
    std::uint64_t tasks = 0;
    std::uint64_t acts = 0;
    std::uint64_t rounds = 0;
    std::vector<double> setupS;  //!< wall of each set-up repetition
    double preMainS = 0.0;       //!< process start to main()
    /**
     * What one round and the set-up do, printed as the `work:` line: it
     * must read the same for every seed (the smoke test compares two).
     */
    std::string work;
    std::uint64_t setupActs = 0; //!< sim ACTs of the warm-up task
    double peakRss = 0.0;        //!< VmHWM (MB) when the window ends

    void
    add(double seconds, std::uint64_t n_tasks, std::uint64_t n_acts)
    {
        wallS += seconds;
        tasks += n_tasks;
        acts += n_acts;
    }

    /**
     * sim_acts_per_s and tasks_per_s are totals over the window;
     * setup_s is process start to main() plus the median set-up
     * repetition; peak_rss_mb is the peak of set-up and window, before
     * the checks run.
     */
    std::vector<Metric> metrics() const;
};

/** VmHWM of this process, in MB. */
double peakRssMb();

/** Number of set-up repetitions whose median is setup_s. */
inline constexpr unsigned setupRepeats = 7;

/**
 * Time `setUp` once before the window, then fill the window with whole
 * rounds; `round` runs one round's timed calls and adds them to `e2e`.
 * The other set-up repetitions are spread evenly through the window
 * (between rounds, outside the timed calls), so that setup_s samples
 * the host at the same moments as the rates do instead of only at the
 * start.
 */
template <typename SetUp, typename Round>
void
runWindow(double seconds, EndToEnd &e2e, SetUp &&setUp, Round &&round)
{
    e2e.setupS.push_back(timed(setUp));
    while (e2e.rounds == 0 || e2e.wallS < seconds) {
        round();
        ++e2e.rounds;
        if (e2e.setupS.size() < setupRepeats
            && e2e.wallS >= seconds * e2e.setupS.size() / setupRepeats)
            e2e.setupS.push_back(timed(setUp));
    }
    while (e2e.setupS.size() < setupRepeats)
        e2e.setupS.push_back(timed(setUp));
    e2e.peakRss = peakRssMb();
}

/**
 * Per-layer results of a traced run. Every field is printed by every
 * workload; a layer the workload never enters reports 0.
 */
struct Layers
{
    // cpu
    double cpuRunS = 0.0;           //!< SimCpu::run wall, recorded runs
    double cpuDramReplayS = 0.0;    //!< replay of those runs' streams
    std::uint64_t cpuAccesses = 0;  //!< backend calls in those runs
    // dram (replays of recorded streams through fresh Dimms)
    double dramReplayS = 0.0;       //!< as configured
    std::uint64_t dramAccesses = 0;
    std::uint64_t dramActs = 0;
    double trrOnS = 0.0, trrOffS = 0.0;
    std::uint64_t trrActs = 0;
    double mitOnS = 0.0, mitOffS = 0.0;
    std::uint64_t mitActs = 0;
    double eccReadOnS = 0.0, eccReadOffS = 0.0;
    std::uint64_t eccBytes = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t rfmRefreshes = 0;
    std::uint64_t pracAlerts = 0;
    std::uint64_t eccCorrections = 0;
    // memsys / mapping
    double instantiateS = 0.0;
    std::uint64_t instantiates = 0;
    double memsysReplayS = 0.0;
    std::uint64_t memsysAccesses = 0;
    double probeUsPerPair = 0.0;
    double decodeNs = 0.0;
    // hammer
    double buildKernelS = 0.0;
    std::uint64_t buildKernels = 0;
    double verifyS = 0.0;
    std::uint64_t hammerRuns = 0;
    // revng / os / exploit
    double revngSelfMs = 0.0;
    double osSetupMs = 0.0;
    double stage2Ns = 0.0;
    double templatingMs = 0.0;
    double escalationMs = 0.0;
    std::uint64_t takeovers = 0;
    std::uint64_t crossFlipsRaw = 0;
    // common
    double poolBusyMs = 0.0;      //!< sum of task walls
    double poolCapacityMs = 0.0;  //!< jobs x fan-out wall
    double journalRecordS = 0.0;
    std::uint64_t journalRecords = 0;
    double journalOpenMs = 0.0;
    // service
    double serviceOverheadRatio = 0.0;
    double serviceSuperviseMs = 0.0;
    double serviceMergeMs = 0.0;
    std::uint64_t tasksReexecuted = 0;
    // bench, one entry per re-executed unit
    std::vector<double> coverage; //!< sum of layer times / untraced wall
    std::vector<double> overhead; //!< traced wall / untraced wall

    /** Account one unit measured both untraced and traced. */
    void
    addUnit(double untraced_s, double traced_s, double layer_sum_s)
    {
        coverage.push_back(layer_sum_s / untraced_s);
        overhead.push_back(traced_s / untraced_s);
    }

    /** The reconciliation and tracing-cost ratios are unit medians. */
    std::vector<Metric> metrics() const;
};

/**
 * Tolerance the layer times must reconcile within: |1 - sum of layer
 * times / untraced unit wall| <= this, for the median unit.
 */
inline constexpr double reconcileTolerance = 0.15;

/** Seconds of a fixed integer loop: a host-speed diagnostic only. */
double hostProbeSeconds();

/**
 * CPU time the hypervisor gave to other guests (the steal column of
 * /proc/stat, all CPUs), in seconds since boot; 0 where unavailable. A
 * host-noise diagnostic only.
 */
double hostStealSeconds();

// ---- record and replay -------------------------------------------

/** One DRAM access as the controller saw it. */
struct Access
{
    rho::PhysAddr pa;
    rho::Ns t;   //!< controller time (after the global-clock clamp)
    rho::Ns lat; //!< latency returned to the caller
};

/**
 * A MemorySystem that records every timed DRAM access it serves. It is
 * a MemoryBackend, so it can be handed to SimCpu::run, TimingProbe or
 * HammerSession unchanged. resolveLine and dramAccessResolved forward
 * to the base class, so the core keeps its resolved fast path;
 * recording costs one vector append per access.
 */
class RecordingSystem : public rho::MemorySystem
{
  public:
    /**
     * `buffer` is reused for the stream (its capacity is kept), so a
     * caller recording many units can hand the same buffer from one
     * unit to the next.
     */
    explicit RecordingSystem(rho::MemorySystem &&base,
                             std::vector<Access> buffer = {});

    RecordingSystem(const RecordingSystem &) = delete;
    RecordingSystem &operator=(const RecordingSystem &) = delete;

    rho::Ns dramAccess(rho::PhysAddr pa, rho::Ns now) override;
    const void *resolveLine(rho::PhysAddr pa) override;
    rho::Ns dramAccessResolved(const void *handle, rho::Ns now) override;

    const std::vector<Access> &stream() const { return rec; }
    /** Give the stream's buffer back for the next recording. */
    std::vector<Access> releaseBuffer() { return std::move(rec); }

  private:
    struct Line
    {
        rho::PhysAddr pa;
        const void *inner;
    };
    std::deque<Line> lines; //!< pointer-stable handles
    std::unordered_map<rho::PhysAddr, const Line *> lineIndex;
    std::vector<Access> rec;
};

/**
 * An empty buffer with room for `n` accesses, its pages already
 * touched, so recording into it takes no page faults.
 */
std::vector<Access> recordingBuffer(std::size_t n);

/** Outcome of replaying a recorded stream. */
struct Replay
{
    double seconds = 0.0;
    std::uint64_t acts = 0;
    std::uint64_t mismatches = 0; //!< latency differs from recording
};

/** Replay through MemorySystem::dramAccess (decode included). */
Replay replayMemsys(rho::MemorySystem &sys, const std::vector<Access> &s);

/** Batch-timed AddressMapping::decode over the stream, ns per call. */
double decodeNsPerAccess(const rho::AddressMapping &map,
                         const std::vector<Access> &s);

/**
 * Replay a whole recorded stream through fresh Dimms of `spec` (as
 * configured), and of `spec` with `off` applied, three times each in
 * alternation. Returns the median times; latencies are checked on every
 * pass as configured.
 */
struct PairedReplay
{
    double onS = 0.0;
    double offS = 0.0;
    std::uint64_t acts = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t rfmRefreshes = 0;
    std::uint64_t pracAlerts = 0;
};
PairedReplay replayPaired(const rho::SystemSpec &spec,
                          const rho::SystemSpec &off,
                          const std::vector<Access> &s);

/**
 * Account a paired replay of `accesses` recorded accesses as the DRAM
 * layer's time (as configured) and counters.
 */
void addReplay(Layers &layers, const PairedReplay &r, std::size_t accesses);

/** Victim and aggressor rows exactly as HammerSession::hammer uses them. */
struct HammerRows
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> victims;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> aggressors;
};
HammerRows hammerRows(const rho::MemorySystem &sys,
                      const rho::HammerPattern &pattern,
                      const rho::HammerLocation &loc,
                      const rho::HammerConfig &cfg);

/**
 * HammerSession::hammer re-executed from outside, one public call at a
 * time (fillRow, buildKernel, SimCpu::run, diffRow), so each layer's
 * host time lands in `layers`. Produces the same outcome as
 * session.hammer() on the same machine state. refSync is not
 * replicated: the workloads' configurations never set it.
 */
rho::HammerOutcome replicaHammer(rho::HammerSession &session,
                                 const rho::HammerPattern &pattern,
                                 const rho::HammerLocation &loc,
                                 const rho::HammerConfig &cfg,
                                 Layers &layers);

/** Byte-equal comparison of two flip lists. */
bool sameFlips(const std::vector<rho::FlipRecord> &a,
               const std::vector<rho::FlipRecord> &b);

/** Exact equality of two doubles, including their bit patterns. */
bool sameBits(double a, double b);

// ---- workloads ----------------------------------------------------

void runSweep(const Options &opt, EndToEnd &e2e, Layers &layers,
              Checks &checks);
void runService(const Options &opt, EndToEnd &e2e, Layers &layers,
                Checks &checks);
void runAttack(const Options &opt, EndToEnd &e2e, Layers &layers,
               Checks &checks);

} // namespace rhobench

#endif // RHOBENCH_HARNESS_HH
