/**
 * @file
 * Instruction-granular timing model of a speculative x86 core running
 * a hammer kernel.
 *
 * The model captures exactly the micro-architectural interactions the
 * paper's analysis rests on:
 *
 *  - Loads occupy load-queue/ROB entries until their data returns and
 *    hold a fill buffer for the full fill-to-use path, throttling their
 *    activation rate.
 *  - Prefetches retire at issue (asynchronous); their requests use a
 *    shallow queue + the fill buffers, and are silently dropped when
 *    the line is (still) present, a fill is in flight, or the request
 *    queue is full.
 *  - CLFLUSHOPT completes asynchronously and is unordered with respect
 *    to prefetches: an access issued before a same-line flush completes
 *    hits the stale line and performs no DRAM activation (Fig. 7).
 *  - The "C++ indexed" addressing mode carries a loop dependency that
 *    spaces memory ops out; newer cores speculate most of that chain
 *    away (depChainBreakFactor), compressing issue times and making
 *    the disorder worse (Alder/Raptor Lake).
 *  - LFENCE waits for older loads (and the address-generation loads of
 *    the indexed mode) and blocks younger execution; it does NOT order
 *    prefetch fills. CPUID serializes everything. NOP runs consume
 *    dispatch bandwidth/ROB slots, spacing accesses without waiting.
 *  - Obfuscated branches are resolved against a real gshare/BTB model
 *    fed random outcomes; each mispredict is a pipeline flush that
 *    re-serializes the front end.
 *
 * Two engines implement these semantics:
 *
 *  - CpuModelKind::Reference walks the kernel body op by op through
 *    execOp(), re-deriving every cost each time. It is the original
 *    engine, kept as the correctness oracle.
 *  - CpuModelKind::Blocked (default) compiles the body once per run
 *    into a BlockPlan (pre-divided costs, pre-resolved DRAM line
 *    handles, branch sites) and replays it from flat ring buffers,
 *    dropping to per-event handling only where state matters: cache
 *    occupancy, fill-buffer contention, branch mispredicts, the DRAM
 *    access itself, and the attached tracer.
 *
 * The engines are bit-identical — same counters (including the
 * floating-point clock), same DRAM command stream, same trace, same
 * randomness consumption. tests/test_cpu_oracle.cc and the property
 * suite pin this differentially.
 */

#ifndef RHO_CPU_SIM_CPU_HH
#define RHO_CPU_SIM_CPU_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "common/replay_rng.hh"
#include "common/rng.hh"
#include "cpu/arch_params.hh"
#include "cpu/block_plan.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/cache_model.hh"
#include "cpu/kernel.hh"
#include "cpu/perf_counters.hh"
#include "trace/tracer.hh"

namespace rho
{

/** Interface the CPU model uses to reach DRAM. */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /**
     * Perform a timed DRAM read of the line containing pa.
     * @return the access latency in ns.
     */
    virtual Ns dramAccess(PhysAddr pa, Ns now) = 0;

    /**
     * Pre-resolve the line containing pa into an opaque handle that
     * dramAccessResolved() accepts in place of the address, letting
     * the backend skip per-access address decode for a working set
     * that is fixed over a run (a hammer kernel's is). The handle must
     * stay valid for the backend's lifetime.
     *
     * @return the handle, or nullptr when this backend has no
     *         resolved fast path (callers then use dramAccess).
     */
    virtual const void *resolveLine(PhysAddr pa)
    {
        (void)pa;
        return nullptr;
    }

    /**
     * dramAccess() for a handle obtained from resolveLine(). Must be
     * observably identical to dramAccess(pa, now) for the resolved
     * address. Only called with handles this backend returned.
     */
    virtual Ns dramAccessResolved(const void *handle, Ns now);
};

/**
 * Which replay engine SimCpu uses. Observable behaviour is identical;
 * Blocked is the fast path, Reference the original per-op
 * implementation kept as a differential-testing oracle (mirrors
 * RowStoreKind on the DRAM side).
 */
enum class CpuModelKind : std::uint8_t
{
    Blocked,   //!< compiled BlockPlan replay, ring-buffer state
    Reference  //!< original op-by-op interpreter
};

/** The core model. One instance per (arch, experiment). */
class SimCpu
{
  public:
    SimCpu(const ArchParams &params, std::uint64_t seed,
           CpuModelKind model = CpuModelKind::Blocked);

    /**
     * Replay the kernel until mem_read_budget hammer attempts (loads
     * or prefetches) have been issued.
     *
     * @param start_ns simulated time at entry (the DRAM refresh
     *        machinery is phase-sensitive, so callers maintain a
     *        global clock).
     */
    PerfCounters run(const HammerKernel &kernel, MemoryBackend &mem,
                     std::uint64_t mem_read_budget, Ns start_ns = 0.0);

    const ArchParams &params() const { return arch; }

    /** Engine selection; takes effect at the next run(). */
    void setModel(CpuModelKind k) { kind = k; }
    CpuModelKind model() const { return kind; }

    /**
     * Attach a tracer (nullptr detaches) for retire/stall/cache/
     * prefetch events (category Cpu — off in CatDefault; these are
     * the highest-volume events in the system). Tracing never draws
     * randomness or advances time.
     */
    void setTracer(Tracer *t) { tracer = t; }

  private:
    /**
     * Power-of-two ring buffer of timestamps: the Blocked engine's
     * replacement for the reference deques (load queue, store buffer,
     * ROB, prefetch queue). Capacity is fixed at init; the replay
     * loop's own occupancy checks bound the size, so push never
     * overwrites.
     */
    struct TimeRing
    {
        std::vector<Ns> buf;
        std::size_t mask = 0;
        std::size_t head = 0;
        std::size_t count = 0;

        void init(std::size_t capacity);
        void clear() { head = count = 0; }
        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }
        Ns front() const { return buf[head & mask]; }
        Ns back() const { return buf[(head + count - 1) & mask]; }
        void pushBack(Ns v) { buf[(head + count++) & mask] = v; }
        void popFront()
        {
            ++head;
            --count;
        }
    };

    // One pass over the kernel body; returns false when budget hit.
    void execOp(const Op &op, const HammerKernel &kernel,
                MemoryBackend &mem, std::uint64_t op_index);

    /**
     * Blocked engine: replay the compiled plan until the budget is
     * hit. Specialized on tracer presence (Traced=false drops every
     * emission guard) and addressing mode (Indexed=false drops the
     * dependency-chain updates from all memory ops).
     */
    template <bool Traced, bool Indexed>
    void replayBlocked(MemoryBackend &mem);

    /**
     * Fresh micro-architectural state for one run(): empties both
     * engines' queue state, resets the predictor and counters, and
     * re-bases the clocks on start_ns. Deliberately does NOT reseed
     * the rng — randomness is a per-experiment stream that spans runs
     * (TRR-evasion trials depend on it). Pinned by the back-to-back
     * determinism regression in tests/test_cpu.cc.
     */
    void resetRunState(const HammerKernel &kernel,
                       std::uint64_t mem_read_budget, Ns start_ns);

    Ns cyc(double cycles) const { return cycles / arch.freqGhz; }

    // Fill-buffer pool: returns the grant time for a new entry.
    Ns lfbAcquire(Ns t);
    void lfbRelease(Ns release_at);

    // Blocked-engine fill-buffer pool: same multiset of release times
    // as the reference heap, kept as a flat array (lfbSize <= 16, so a
    // min scan beats heap maintenance).
    Ns lfbAcquireFlat(Ns t);
    void lfbReleaseFlat(Ns release_at) { lfbFlat[lfbCount++] = release_at; }

    void robPush(Ns completion);
    void stallTo(Ns ready, std::uint32_t resource);

    Ns dram(MemoryBackend &mem, PhysAddr pa, Ns t);

    const ArchParams &arch;
    CpuModelKind kind;
    Rng rng;
    ReplayRng rrng; //!< Blocked engine's view of rng (synced per run)
    BranchPredictor bp;
    BlockPlan plan; //!< Blocked engine's compiled body (reused storage)

    // Per-run state (reference engine).
    CacheModel cache{0};
    std::vector<Ns> lfb;          //!< min-heap of release times
    std::deque<Ns> pfQueue;       //!< grant times of queued prefetches
    std::deque<Ns> loadQueue;     //!< completion times (FIFO)
    std::deque<Ns> storeBuffer;   //!< flush completion times (FIFO)
    std::deque<Ns> rob;           //!< completion times (FIFO)

    // Per-run state (blocked engine): flat mirrors of the above.
    std::vector<Ns> lfbFlat;
    std::size_t lfbCount = 0;
    TimeRing pfRing;
    TimeRing lqRing;
    TimeRing sbRing;
    TimeRing robRing;

    // Per-run state (shared).
    Ns now = 0.0;
    Ns lastMemIssue = -1e18;
    Ns lastLoadComplete = 0.0;
    Ns lastAddrLoadComplete = 0.0;
    Ns lastFlushDone = 0.0;
    Ns lastFillDone = 0.0;
    Ns lastRobRetire = 0.0;
    Ns lastLoadRetire = 0.0;
    Ns lastDramTime = 0.0;
    Ns lastLoadGrant = -1e18;
    Ns lastPfGrant = -1e18;
    PerfCounters ctr;
    std::uint64_t budget = 0;
    Tracer *tracer = nullptr;
};

} // namespace rho

#endif // RHO_CPU_SIM_CPU_HH
