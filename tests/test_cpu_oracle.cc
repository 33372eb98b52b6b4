/**
 * @file
 * Differential oracle for the CPU replay engines: CpuModelKind::Blocked
 * (block-cached replay) must be byte-identical to
 * CpuModelKind::Reference (the original op-by-op interpreter) — same
 * PerfCounters including the floating-point clock, same DRAM command
 * stream, same golden trace, same flips, same randomness consumption —
 * across architectures, kernel shapes, seeds and campaign job counts.
 *
 * Also pins the ReplayRng replica (common/replay_rng.hh) directly against
 * the std library objects it replaces: raw engine stream, bernoulli and
 * uniform-int draws, and the state handoff both ways.
 */

#include <bit>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/replay_rng.hh"
#include "cpu/arch_params.hh"
#include "cpu/kernel.hh"
#include "cpu/sim_cpu.hh"
#include "dram/dimm_profile.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "trace/golden.hh"
#include "trace/tracer.hh"

using namespace rho;

namespace
{

// ---------------------------------------------------------------------
// ReplayRng vs the std library
// ---------------------------------------------------------------------

/** std::mt19937_64 positioned at the same state as `r`. */
std::mt19937_64
stdEngineAt(const Rng &r)
{
    std::mt19937_64 eng;
    std::istringstream in(r.saveEngineState());
    in >> eng;
    EXPECT_TRUE(static_cast<bool>(in));
    return eng;
}

} // namespace

TEST(ReplayRng, RawStreamMatchesStdEngine)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
        Rng src(seed);
        // Start mid-block too: a partially consumed engine state must
        // import at the right read position.
        for (int skip = 0; skip < 3; ++skip)
            src.raw();
        ReplayRng rr;
        rr.importFrom(src);
        std::mt19937_64 eng = stdEngineAt(src);
        // > 2 full twist blocks (312 words each).
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(rr.next(), eng()) << "seed " << seed << " draw " << i;
    }
}

TEST(ReplayRng, ChanceMatchesRngAndStaysInSync)
{
    const double probs[] = {-0.5, 0.0, 1e-18, 0.02, 0.1, 0.25, 0.5,
                            0.6,  0.7, 0.999, 1.0,  1.5};
    Rng ref(77);
    Rng shadow(77);
    ReplayRng rr;
    rr.importFrom(shadow);
    for (int round = 0; round < 400; ++round) {
        for (double p : probs) {
            ASSERT_EQ(rr.chance(p), ref.chance(p))
                << "p " << p << " round " << round;
        }
    }
    // The replica consumed exactly the same number of engine words.
    rr.exportTo(shadow);
    EXPECT_EQ(shadow.saveEngineState(), ref.saveEngineState());
}

TEST(ReplayRng, UniformIntMatchesRngAndStaysInSync)
{
    struct Range
    {
        std::uint64_t lo, hi;
    };
    // Power-of-two span (no rejection), degenerate, offset, a span
    // with a nonzero Lemire threshold (rejection possible), and the
    // full 2^64 span (raw-draw path).
    const Range ranges[] = {{0, 7},
                            {3, 3},
                            {1, 8},
                            {0, 0xfffffffffffffffdULL},
                            {5, ~0ULL - 1},
                            {0, ~0ULL}};
    Rng ref(123);
    Rng shadow(123);
    ReplayRng rr;
    rr.importFrom(shadow);
    for (int round = 0; round < 500; ++round) {
        for (const Range &r : ranges) {
            ASSERT_EQ(rr.uniformInt(r.lo, r.hi),
                      ref.uniformInt(r.lo, r.hi))
                << "[" << r.lo << ", " << r.hi << "] round " << round;
        }
    }
    rr.exportTo(shadow);
    EXPECT_EQ(shadow.saveEngineState(), ref.saveEngineState());
}

TEST(ReplayRng, PeekConsumeIfAdvancesByZeroOrOne)
{
    Rng ref(9);
    Rng shadow(9);
    ReplayRng rr;
    rr.importFrom(shadow);
    for (int i = 0; i < 700; ++i) {
        std::uint64_t expect = ref.raw();
        ASSERT_EQ(rr.peek(), expect);
        ASSERT_EQ(rr.peek(), expect); // peek does not advance
        if (i % 3 == 0) {
            rr.consumeIf(false); // still not advanced
            ASSERT_EQ(rr.peek(), expect);
        }
        rr.consumeIf(true);
    }
    rr.exportTo(shadow);
    EXPECT_EQ(shadow.saveEngineState(), ref.saveEngineState());
}

TEST(ReplayRng, StateRoundTripsBothWays)
{
    Rng a(31337);
    for (int i = 0; i < 500; ++i)
        a.raw(); // land mid-block
    std::string before = a.saveEngineState();
    ReplayRng rr;
    rr.importFrom(a);
    Rng b(1);
    rr.exportTo(b);
    EXPECT_EQ(b.saveEngineState(), before);
    // And the streams agree after the round trip.
    EXPECT_EQ(a.raw(), b.raw());
}

namespace
{

const std::uint64_t kSeeds[] = {0ULL, 1ULL, 0x7272ULL, ~0ULL};

// Draw counts around the lazy first block's edges: the seeding lead
// (156), the block length (312) and into the second block.
const int kPrefixes[] = {0, 1, 155, 156, 157, 311, 312, 313, 700};

} // namespace

TEST(ReplayRng, SeededStreamMatchesStdEngine)
{
    for (std::uint64_t seed : kSeeds) {
        ReplayRng rr(seed);
        std::mt19937_64 eng(seed);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(rr(), eng()) << "seed " << seed << " draw " << i;
    }
}

TEST(ReplayRng, SeededPrefixHandsOffExactly)
{
    // After any prefix, the lazily built state must export to an Rng
    // that continues the std stream (the block is finished on a copy,
    // so the ReplayRng itself continues it too).
    for (std::uint64_t seed : kSeeds) {
        for (int prefix : kPrefixes) {
            ReplayRng rr(seed);
            std::mt19937_64 eng(seed);
            for (int i = 0; i < prefix; ++i)
                ASSERT_EQ(rr.next(), eng());
            Rng handed(0);
            rr.exportTo(handed);
            std::mt19937_64 ref = eng;
            for (int i = 0; i < 400; ++i) {
                std::uint64_t expect = ref();
                ASSERT_EQ(handed.raw(), expect)
                    << "seed " << seed << " prefix " << prefix << " +" << i;
                ASSERT_EQ(rr.next(), expect)
                    << "seed " << seed << " prefix " << prefix << " +" << i;
            }
        }
    }
}

TEST(ReplayRng, SeededPeekConsumeIfInsideLazyBlock)
{
    for (std::uint64_t seed : kSeeds) {
        ReplayRng rr(seed);
        std::mt19937_64 eng(seed);
        for (int i = 0; i < 700; ++i) {
            std::uint64_t expect = eng();
            ASSERT_EQ(rr.peek(), expect) << "seed " << seed << " draw " << i;
            ASSERT_EQ(rr.peek(), expect);
            if (i % 3 == 0) {
                rr.consumeIf(false);
                ASSERT_EQ(rr.peek(), expect);
            }
            rr.consumeIf(true);
        }
    }
    // A peek at a fresh engine must not disturb the handoff either.
    ReplayRng rr(5);
    std::mt19937_64 eng(5);
    ASSERT_EQ(rr.peek(), std::mt19937_64(5)());
    Rng handed(0);
    rr.exportTo(handed);
    for (int i = 0; i < 400; ++i)
        ASSERT_EQ(handed.raw(), eng());
}

TEST(ReplayRng, StdDistributionsMatchOverBothEngines)
{
    // One fresh distribution object per call (the way Rng and
    // DimmProfile::weakCellsFor use them), then the engines' positions.
    const double means[] = {0.3, 2.5, 11.0, 12.0, 40.0};
    for (std::uint64_t seed : kSeeds) {
        for (int prefix : kPrefixes) {
            ReplayRng rr(seed);
            std::mt19937_64 eng(seed);
            for (int i = 0; i < prefix; ++i)
                ASSERT_EQ(rr(), eng());
            for (int round = 0; round < 40; ++round) {
                double mean = means[round % 5];
                ASSERT_EQ(
                    std::poisson_distribution<std::uint64_t>(mean)(rr),
                    std::poisson_distribution<std::uint64_t>(mean)(eng));
                ASSERT_EQ(
                    std::uniform_int_distribution<std::uint64_t>(
                        0, 65535)(rr),
                    std::uniform_int_distribution<std::uint64_t>(
                        0, 65535)(eng));
                ASSERT_EQ(std::bernoulli_distribution(0.37)(rr),
                          std::bernoulli_distribution(0.37)(eng));
                double a = std::lognormal_distribution<double>(
                    std::log(8000.0), 0.4)(rr);
                double b = std::lognormal_distribution<double>(
                    std::log(8000.0), 0.4)(eng);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                          std::bit_cast<std::uint64_t>(b))
                    << "seed " << seed << " prefix " << prefix;
            }
            ASSERT_EQ(rr(), eng()) << "seed " << seed << " prefix " << prefix;
        }
    }
    // A long-lived distribution keeps state between calls (the
    // normal's cached second value); it must see the same draws too.
    ReplayRng rr(0x7272);
    std::mt19937_64 eng(0x7272);
    std::lognormal_distribution<double> da(1.0, 0.5), db(1.0, 0.5);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(da(rr)),
                  std::bit_cast<std::uint64_t>(db(eng)));
    }
    ASSERT_EQ(rr(), eng());
}

TEST(ReplayRng, SeededChanceAndUniformIntMatchRng)
{
    for (std::uint64_t seed : kSeeds) {
        ReplayRng rr(seed);
        Rng ref(seed);
        for (int i = 0; i < 600; ++i) {
            double p = (i % 7) / 6.0; // includes the draw-free 0 and 1
            ASSERT_EQ(rr.chance(p), ref.chance(p)) << "draw " << i;
            ASSERT_EQ(rr.uniformInt(0, 65535), ref.uniformInt(0, 65535));
        }
        Rng handed(0);
        rr.exportTo(handed);
        EXPECT_EQ(handed.raw(), ref.raw());
    }
}

// ---------------------------------------------------------------------
// SimCpu differential: Blocked vs Reference
// ---------------------------------------------------------------------

namespace
{

/** Fixed-latency backend recording the DRAM command stream. */
class RecordingMemory : public MemoryBackend
{
  public:
    Ns
    dramAccess(PhysAddr pa, Ns now) override
    {
        accesses.push_back({pa, now});
        return 60.0;
    }

    std::vector<std::pair<PhysAddr, Ns>> accesses;
};

/** The kernel shapes the paper's attack variants produce. */
HammerKernel
shapedKernel(const std::string &shape)
{
    AddressingMode mode = shape == "jit" ? AddressingMode::JitImmediate
                                         : AddressingMode::CppIndexed;
    HammerKernel k(mode);
    for (unsigned i = 0; i < 6; ++i) {
        PhysAddr pa = 0x100000 + i * 0x10000;
        if (shape == "obfuscated")
            k.push({OpKind::BranchObf, 0, 1});
        if (shape == "nop-padded")
            k.pushNops(800);
        if (shape == "load")
            k.pushMem(OpKind::Load, pa);
        else
            k.pushMem(OpKind::PrefetchNta, pa);
        k.pushMem(OpKind::ClFlushOpt, pa);
        if (shape == "fenced")
            k.push({OpKind::Lfence, 0, 1});
    }
    k.push({OpKind::BranchLoop, 0, 1});
    return k;
}

const char *const kKernelShapes[] = {"plain",  "jit",        "obfuscated",
                                     "nop-padded", "load",   "fenced"};

/** Assert every PerfCounters field matches, including the fp clock. */
void
expectSameCounters(const PerfCounters &a, const PerfCounters &b,
                   const std::string &what)
{
    EXPECT_EQ(a.memReads, b.memReads) << what;
    EXPECT_EQ(a.dramAccesses, b.dramAccesses) << what;
    EXPECT_EQ(a.cacheHits, b.cacheHits) << what;
    EXPECT_EQ(a.pfQueueDrops, b.pfQueueDrops) << what;
    EXPECT_EQ(a.flushes, b.flushes) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << what;
    EXPECT_EQ(a.nops, b.nops) << what;
    // Bit-identical simulated time, not approximately equal: the
    // blocked engine hoists expressions but never reassociates them.
    EXPECT_EQ(a.timeNs, b.timeNs) << what;
}

} // namespace

TEST(CpuOracle, CountersAndDramStreamIdenticalEverywhere)
{
    for (Arch arch : allArchs) {
        for (const char *shape : kKernelShapes) {
            for (std::uint64_t seed : {1ULL, 99ULL}) {
                HammerKernel k = shapedKernel(shape);
                RecordingMemory blocked_mem, ref_mem;
                SimCpu blocked(ArchParams::forArch(arch), seed,
                               CpuModelKind::Blocked);
                SimCpu ref(ArchParams::forArch(arch), seed,
                           CpuModelKind::Reference);
                PerfCounters bc = blocked.run(k, blocked_mem, 4000);
                PerfCounters rc = ref.run(k, ref_mem, 4000);

                std::string what = archName(arch) + std::string("/")
                    + shape + "/seed " + std::to_string(seed);
                expectSameCounters(bc, rc, what);
                ASSERT_EQ(blocked_mem.accesses.size(),
                          ref_mem.accesses.size())
                    << what;
                for (std::size_t i = 0; i < ref_mem.accesses.size(); ++i) {
                    ASSERT_EQ(blocked_mem.accesses[i].first,
                              ref_mem.accesses[i].first)
                        << what << " access " << i;
                    // Same address AND same bit-exact issue time.
                    ASSERT_EQ(blocked_mem.accesses[i].second,
                              ref_mem.accesses[i].second)
                        << what << " access " << i;
                }
            }
        }
    }
}

TEST(CpuOracle, RngStreamHandoffSpansRuns)
{
    // Back-to-back runs on one core: the blocked engine borrows the
    // rng stream and must hand it back exactly where the reference
    // engine would have left it, or the second run diverges.
    for (const char *shape : {"obfuscated", "plain"}) {
        HammerKernel k = shapedKernel(shape);
        RecordingMemory m1, m2;
        SimCpu blocked(ArchParams::forArch(Arch::RaptorLake), 5,
                       CpuModelKind::Blocked);
        SimCpu ref(ArchParams::forArch(Arch::RaptorLake), 5,
                   CpuModelKind::Reference);
        blocked.run(k, m1, 3000);
        ref.run(k, m2, 3000);
        PerfCounters b2 = blocked.run(k, m1, 3000, 1e6);
        PerfCounters r2 = ref.run(k, m2, 3000, 1e6);
        expectSameCounters(b2, r2, std::string("second run, ") + shape);
    }
}

TEST(CpuOracle, ZeroBudgetMatchesReferenceEdge)
{
    HammerKernel k = shapedKernel("plain");
    RecordingMemory m1, m2;
    SimCpu blocked(ArchParams::forArch(Arch::AlderLake), 3,
                   CpuModelKind::Blocked);
    SimCpu ref(ArchParams::forArch(Arch::AlderLake), 3,
               CpuModelKind::Reference);
    PerfCounters bc = blocked.run(k, m1, 0);
    PerfCounters rc = ref.run(k, m2, 0);
    expectSameCounters(bc, rc, "zero budget");
    EXPECT_EQ(m1.accesses.size(), m2.accesses.size());
}

TEST(CpuOracle, GoldenTraceIdenticalWhenTraced)
{
    // Traced runs exercise the Traced replay specialization (no NOP
    // fusion, per-event emission); the serialized trace must match the
    // reference byte for byte — CPU retire/stall/cache events included.
    auto traced = [](CpuModelKind kind) {
        MemorySystem sys(Arch::RaptorLake, DimmProfile::byId("S4"),
                         TrrConfig{}, 11);
        Tracer tracer(TraceConfig{true, CatAll, std::size_t{1} << 22});
        sys.attachTracer(&tracer);
        SimCpu cpu(sys.cpuParams(), 11, kind);
        cpu.setTracer(&tracer);
        HammerKernel k = shapedKernel("obfuscated");
        cpu.run(k, sys, 3000);
        sys.attachTracer(nullptr);
        EXPECT_EQ(tracer.dropped(), 0u);
        return goldenSerialize(tracer.events());
    };
    EXPECT_EQ(traced(CpuModelKind::Blocked),
              traced(CpuModelKind::Reference));
}

namespace
{

/** The pinned quickstart campaign, through either CPU engine. */
SweepResult
campaignRun(unsigned jobs, CpuModelKind kind,
            std::vector<TraceEvent> &trace)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
    spec.cpuModel = kind;
    spec.trace.enabled = true;
    spec.trace.categories = CatDram | CatTrr | CatFlip | CatPhase;
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 2000);
    Rng rng(42);
    HammerPattern pattern = HammerPattern::randomNonUniform(rng);
    SweepParams params;
    params.numLocations = 2;
    params.jobs = jobs;
    trace.clear();
    return sweepCampaign(spec, pattern, cfg, params, 42, nullptr,
                         nullptr, &trace);
}

bool
sameFlips(const std::vector<FlipRecord> &a,
          const std::vector<FlipRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].bank != b[i].bank || a[i].row != b[i].row
            || a[i].bitOffset != b[i].bitOffset
            || a[i].toOne != b[i].toOne || a[i].when != b[i].when)
            return false;
    }
    return true;
}

} // namespace

TEST(CpuOracle, CampaignFlipsAndTracesIdenticalAcrossModesAndJobs)
{
    for (unsigned jobs : {1u, 8u}) {
        std::vector<TraceEvent> blocked_tr, ref_tr;
        SweepResult blocked =
            campaignRun(jobs, CpuModelKind::Blocked, blocked_tr);
        SweepResult ref =
            campaignRun(jobs, CpuModelKind::Reference, ref_tr);
        EXPECT_EQ(goldenSerialize(blocked_tr), goldenSerialize(ref_tr))
            << "trace diverged, jobs " << jobs;
        EXPECT_TRUE(sameFlips(blocked.flipList, ref.flipList))
            << "flip list diverged, jobs " << jobs;
        EXPECT_EQ(blocked.totalFlips, ref.totalFlips);
        EXPECT_EQ(blocked.simTimeNs, ref.simTimeNs);
    }
}

TEST(CpuOracle, Sec53ShapedSessionIdentical)
{
    // The sec53_end_to_end workload shape (single-bank rho config on
    // S4): full HammerSession through both engines must agree on acts,
    // flips and the simulated clock.
    auto sessionRun = [](CpuModelKind kind, std::vector<FlipRecord> &fl) {
        MemorySystem sys(Arch::RaptorLake, DimmProfile::byId("S4"),
                         TrrConfig{}, 17);
        sys.setCpuModel(kind);
        HammerSession session(sys, 17);
        HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, 60000);
        HammerPattern pattern = HammerPattern::doubleSided();
        HammerLocation loc = session.randomLocation(pattern, cfg);
        session.hammer(pattern, loc, cfg);
        fl = sys.dimm().flipLog();
        struct
        {
            std::uint64_t acts;
            Ns clock;
        } out{sys.dimm().totalActs(), sys.now()};
        return std::pair<std::uint64_t, Ns>{out.acts, out.clock};
    };
    std::vector<FlipRecord> blocked_fl, ref_fl;
    auto blocked = sessionRun(CpuModelKind::Blocked, blocked_fl);
    auto ref = sessionRun(CpuModelKind::Reference, ref_fl);
    EXPECT_EQ(blocked.first, ref.first);
    EXPECT_EQ(blocked.second, ref.second); // bit-identical sim clock
    EXPECT_TRUE(sameFlips(blocked_fl, ref_fl));
}
