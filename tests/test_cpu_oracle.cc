/**
 * @file
 * Differential oracle for the CPU replay engines: CpuModelKind::Blocked
 * (block-cached replay) must be byte-identical to
 * CpuModelKind::Reference (the original op-by-op interpreter) — same
 * PerfCounters including the floating-point clock, same DRAM command
 * stream, same golden trace, same flips, same randomness consumption —
 * across architectures, kernel shapes, seeds and campaign job counts.
 *
 * Also pins Rng (common/rng.hh), whose engine and chance/uniformInt
 * replay libstdc++'s std::mt19937_64 and distributions, draw by draw
 * against a test-local std::mt19937_64 and the std distributions: raw
 * stream, lazy seeding across the block edges, peek/consumeIf, every
 * uniform-int range class, and the std distributions run over Rng.
 */

#include <bit>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "cpu/arch_params.hh"
#include "cpu/kernel.hh"
#include "cpu/sim_cpu.hh"
#include "dram/dimm_profile.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "trace/golden.hh"
#include "trace/tracer.hh"

using namespace rho;

// ---------------------------------------------------------------------
// Rng vs the std library (suite name: Rng replays std::mt19937_64)
// ---------------------------------------------------------------------

namespace
{

/** The std form of Rng::chance, with its draw-free edges. */
bool
stdChance(std::mt19937_64 &eng, double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return std::bernoulli_distribution(p)(eng);
}

/** The std form of Rng::uniformInt. */
std::uint64_t
stdUniformInt(std::mt19937_64 &eng, std::uint64_t lo, std::uint64_t hi)
{
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(eng);
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

const std::uint64_t kSeeds[] = {0ULL, 1ULL, 0x7272ULL, ~0ULL};

// Draw counts around the lazy first block's edges: the seeding lead
// (156), the block length (312) and into the second block.
const int kPrefixes[] = {0, 1, 155, 156, 157, 311, 312, 313, 700};

} // namespace

TEST(ReplayRng, RawStreamMatchesStdEngine)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL, ~0ULL}) {
        Rng src(seed);
        std::mt19937_64 eng(seed);
        // A copy taken mid-block must continue at the right read
        // position.
        for (int skip = 0; skip < 3; ++skip)
            ASSERT_EQ(src.raw(), eng());
        Rng copy = src;
        // > 2 full twist blocks (312 words each).
        for (int i = 0; i < 1000; ++i) {
            std::uint64_t expect = eng();
            ASSERT_EQ(copy.raw(), expect) << "seed " << seed << " draw " << i;
            ASSERT_EQ(src(), expect) << "seed " << seed << " draw " << i;
        }
    }
}

TEST(ReplayRng, ChanceMatchesRngAndStaysInSync)
{
    const double probs[] = {-0.5, 0.0,   1e-18, 0.02, 0.1, 0.25,
                            0.5,  0.6,   0.7,   0.99, 0.999,
                            std::nextafter(1.0, 0.0), 1.0, 1.5};
    Rng rng(77);
    std::mt19937_64 eng(77);
    for (int round = 0; round < 400; ++round) {
        for (double p : probs) {
            ASSERT_EQ(rng.chance(p), stdChance(eng, p))
                << "p " << p << " round " << round;
        }
    }
    // Rng consumed exactly the same number of engine words.
    EXPECT_EQ(rng.raw(), eng());
}

TEST(ReplayRng, UniformIntMatchesRngAndStaysInSync)
{
    struct Range
    {
        std::uint64_t lo, hi;
    };
    // Power-of-two span (no rejection), degenerate, offset, spans with
    // a small nonzero Lemire threshold, spans whose threshold rejects
    // about half and a third of the draws, and the full 2^64 span
    // (raw-draw path).
    const Range ranges[] = {{0, 7},
                            {3, 3},
                            {1, 8},
                            {0, 65535},
                            {0, 0xfffffffffffffffdULL},
                            {5, ~0ULL - 1},
                            {0, 1ULL << 63},
                            {7, 0xaaaaaaaaaaaaaaaaULL},
                            {0, ~0ULL}};
    Rng rng(123);
    std::mt19937_64 eng(123);
    for (int round = 0; round < 500; ++round) {
        for (const Range &r : ranges) {
            ASSERT_EQ(rng.uniformInt(r.lo, r.hi),
                      stdUniformInt(eng, r.lo, r.hi))
                << "[" << r.lo << ", " << r.hi << "] round " << round;
        }
    }
    EXPECT_EQ(rng.raw(), eng());
}

TEST(ReplayRng, PeekConsumeIfAdvancesByZeroOrOne)
{
    Rng rng(9);
    std::mt19937_64 eng(9);
    for (int i = 0; i < 700; ++i) {
        std::uint64_t expect = eng();
        ASSERT_EQ(rng.peek(), expect);
        ASSERT_EQ(rng.peek(), expect); // peek does not advance
        if (i % 3 == 0) {
            rng.consumeIf(false); // still not advanced
            ASSERT_EQ(rng.peek(), expect);
        }
        rng.consumeIf(true);
    }
    EXPECT_EQ(rng.raw(), eng());
}

TEST(ReplayRng, SeededStreamMatchesStdEngine)
{
    for (std::uint64_t seed : kSeeds) {
        Rng rng(seed);
        std::mt19937_64 eng(seed);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(rng(), eng()) << "seed " << seed << " draw " << i;
    }
}

TEST(ReplayRng, SeededPrefixHandsOffExactly)
{
    // After any prefix, a copy of the lazily built state must continue
    // the std stream, and so must the original.
    for (std::uint64_t seed : kSeeds) {
        for (int prefix : kPrefixes) {
            Rng rng(seed);
            std::mt19937_64 eng(seed);
            for (int i = 0; i < prefix; ++i)
                ASSERT_EQ(rng.raw(), eng());
            Rng handed = rng;
            for (int i = 0; i < 400; ++i) {
                std::uint64_t expect = eng();
                ASSERT_EQ(handed.raw(), expect)
                    << "seed " << seed << " prefix " << prefix << " +" << i;
                ASSERT_EQ(rng.raw(), expect)
                    << "seed " << seed << " prefix " << prefix << " +" << i;
            }
        }
    }
}

TEST(ReplayRng, SeededPeekConsumeIfInsideLazyBlock)
{
    for (std::uint64_t seed : kSeeds) {
        Rng rng(seed);
        std::mt19937_64 eng(seed);
        for (int i = 0; i < 700; ++i) {
            std::uint64_t expect = eng();
            ASSERT_EQ(rng.peek(), expect) << "seed " << seed << " draw " << i;
            ASSERT_EQ(rng.peek(), expect);
            if (i % 3 == 0) {
                rng.consumeIf(false);
                ASSERT_EQ(rng.peek(), expect);
            }
            rng.consumeIf(true);
        }
    }
    // A peek at a fresh engine must not disturb the stream either.
    Rng rng(5);
    std::mt19937_64 eng(5);
    ASSERT_EQ(rng.peek(), std::mt19937_64(5)());
    for (int i = 0; i < 400; ++i)
        ASSERT_EQ(rng.raw(), eng());
}

TEST(ReplayRng, StdDistributionsMatchOverBothEngines)
{
    // One fresh distribution object per call (the way Rng's helpers
    // use them), run over Rng and over std::mt19937_64, then Rng's own
    // helpers against the std objects, then the engines' positions.
    const double means[] = {0.3, 2.5, 11.0, 12.0, 40.0};
    for (std::uint64_t seed : kSeeds) {
        for (int prefix : kPrefixes) {
            Rng rng(seed);
            std::mt19937_64 eng(seed);
            for (int i = 0; i < prefix; ++i)
                ASSERT_EQ(rng(), eng());
            for (int round = 0; round < 40; ++round) {
                double mean = means[round % 5];
                ASSERT_EQ(
                    std::poisson_distribution<std::uint64_t>(mean)(rng),
                    std::poisson_distribution<std::uint64_t>(mean)(eng));
                ASSERT_EQ(
                    std::uniform_int_distribution<std::uint64_t>(
                        0, 65535)(rng),
                    std::uniform_int_distribution<std::uint64_t>(
                        0, 65535)(eng));
                ASSERT_EQ(std::bernoulli_distribution(0.37)(rng),
                          std::bernoulli_distribution(0.37)(eng));
                ASSERT_EQ(
                    bits(std::lognormal_distribution<double>(
                        std::log(8000.0), 0.4)(rng)),
                    bits(std::lognormal_distribution<double>(
                        std::log(8000.0), 0.4)(eng)));
                ASSERT_EQ(
                    bits(std::uniform_real_distribution<double>(
                        -3.0, 5.0)(rng)),
                    bits(std::uniform_real_distribution<double>(
                        -3.0, 5.0)(eng)));
                ASSERT_EQ(
                    bits(std::normal_distribution<double>(60.0, 4.5)(rng)),
                    bits(std::normal_distribution<double>(60.0, 4.5)(eng)))
                    << "seed " << seed << " prefix " << prefix;

                ASSERT_EQ(rng.poisson(mean),
                          std::poisson_distribution<std::uint64_t>(mean)(
                              eng));
                ASSERT_EQ(bits(rng.logNormal(std::log(8000.0), 0.4)),
                          bits(std::lognormal_distribution<double>(
                              std::log(8000.0), 0.4)(eng)));
                ASSERT_EQ(bits(rng.uniformReal(0.0, 1.0)),
                          bits(std::uniform_real_distribution<double>(
                              0.0, 1.0)(eng)));
                ASSERT_EQ(bits(rng.normal(-2.0, 0.25)),
                          bits(std::normal_distribution<double>(
                              -2.0, 0.25)(eng)))
                    << "seed " << seed << " prefix " << prefix;
            }
            ASSERT_EQ(rng(), eng()) << "seed " << seed << " prefix " << prefix;
        }
    }
    // A long-lived distribution keeps state between calls (the
    // normal's cached second value); it must see the same draws too.
    Rng rng(0x7272);
    std::mt19937_64 eng(0x7272);
    std::lognormal_distribution<double> la(1.0, 0.5), lb(1.0, 0.5);
    std::normal_distribution<double> na(0.0, 2.0), nb(0.0, 2.0);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(bits(la(rng)), bits(lb(eng)));
        ASSERT_EQ(bits(na(rng)), bits(nb(eng)));
    }
    ASSERT_EQ(rng(), eng());
}

TEST(ReplayRng, SeededChanceAndUniformIntMatchRng)
{
    for (std::uint64_t seed : kSeeds) {
        Rng rng(seed);
        std::mt19937_64 eng(seed);
        for (int i = 0; i < 600; ++i) {
            double p = (i % 7) / 6.0; // includes the draw-free 0 and 1
            ASSERT_EQ(rng.chance(p), stdChance(eng, p)) << "draw " << i;
            ASSERT_EQ(rng.uniformInt(0, 65535), stdUniformInt(eng, 0, 65535));
        }
        EXPECT_EQ(rng.raw(), eng());
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
    // Back-to-back runs on one core: the blocked engine must leave the
    // rng stream exactly where the reference engine would have left
    // it, or the second run diverges.
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
