/**
 * @file
 * Row-state storage tests: differential equivalence of the flat
 * fast-path store against the reference hash-map store (byte-identical
 * traces, identical flip sequences, across seeds and job counts, and
 * across the lazy cell derivation of the flat store), the
 * Dimm::reset() mitigation-state regression, and the flip-latch
 * re-arm semantics documented in dimm.hh.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dram/dimm.hh"
#include "dram/dimm_profile.hh"
#include "fault/fault_injector.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "trace/golden.hh"
#include "trace/tracer.hh"

using namespace rho;

namespace
{

/** Synthetic dense weak-cell profile (same shape test_dram.cc uses). */
DimmProfile
denseProfile()
{
    DimmProfile p = DimmProfile::byId("S4");
    p.weakCellsPerRow = 4.0;
    p.hcLogMean = std::log(2000.0);
    p.hcLogSigma = 0.1;
    p.hcMin = 1500;
    return p;
}

TrrConfig
noTrr()
{
    TrrConfig t;
    t.enabled = false;
    return t;
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

/** The pinned quickstart campaign, through either row store. */
SweepResult
quickstartRun(unsigned jobs, bool reference,
              std::vector<TraceEvent> &trace)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
    spec.referenceRowStore = reference;
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

/** The pinned TRR-evasion scenario, through either row store. */
std::vector<TraceEvent>
trrEvasionRun(std::uint64_t seed, bool reference,
              std::vector<FlipRecord> &flips,
              std::uint64_t *cell_rows = nullptr)
{
    TrrConfig trr;
    trr.sampleProb = 0.5;
    trr.matchThreshold = 8;
    trr.maxRefreshesPerTick = 4;
    MemorySystem sys(Arch::RaptorLake, DimmProfile::byId("S2"), trr,
                     seed);
    if (reference)
        sys.dimm().setRowStore(RowStoreKind::Reference);
    Tracer tracer(TraceConfig{
        true, CatDram | CatDisturb | CatTrr | CatFlip | CatPhase,
        std::size_t{1} << 22});
    sys.attachTracer(&tracer);

    HammerSession session(sys, seed);
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true, 150000);
    Rng rng(seed);

    HammerPattern uniform = HammerPattern::doubleSided();
    session.hammer(uniform, session.randomLocation(uniform, cfg), cfg);
    HammerPattern evading = HammerPattern::randomNonUniform(rng);
    session.hammer(evading, session.randomLocation(evading, cfg), cfg);

    sys.attachTracer(nullptr);
    EXPECT_EQ(tracer.dropped(), 0u);
    flips = sys.dimm().flipLog();
    if (cell_rows)
        *cell_rows = sys.dimm().cellRowCount();
    return tracer.events();
}

} // namespace

// ---------------------------------------------------------------------
// Differential: flat vs. reference store
// ---------------------------------------------------------------------

TEST(RowStoreDifferential, QuickstartIdenticalAcrossStoresAndJobs)
{
    for (unsigned jobs : {1u, 8u}) {
        std::vector<TraceEvent> flat_tr, ref_tr;
        SweepResult flat = quickstartRun(jobs, false, flat_tr);
        SweepResult ref = quickstartRun(jobs, true, ref_tr);
        EXPECT_EQ(goldenSerialize(flat_tr), goldenSerialize(ref_tr))
            << "trace diverged, jobs " << jobs;
        EXPECT_TRUE(sameFlips(flat.flipList, ref.flipList))
            << "flip list diverged, jobs " << jobs;
        EXPECT_EQ(flat.totalFlips, ref.totalFlips);
        EXPECT_EQ(flat.simTimeNs, ref.simTimeNs);
    }
}

TEST(RowStoreDifferential, TrrEvasionIdenticalAcrossSeeds)
{
    unsigned total_flips = 0;
    for (std::uint64_t seed : {9ULL, 101ULL, 202ULL}) {
        std::vector<FlipRecord> flat_fl, ref_fl;
        auto flat_tr = trrEvasionRun(seed, false, flat_fl);
        auto ref_tr = trrEvasionRun(seed, true, ref_fl);
        EXPECT_EQ(goldenSerialize(flat_tr), goldenSerialize(ref_tr))
            << "trace diverged, seed " << seed;
        EXPECT_TRUE(sameFlips(flat_fl, ref_fl))
            << "flip log diverged, seed " << seed;
        total_flips += flat_fl.size();
    }
    // The scenario must actually exercise the flip path.
    EXPECT_GT(total_flips, 0u);
}

TEST(RowStoreDifferential, ColdRowChurnMatchesReference)
{
    // Thousands of distinct rows force the open-addressed index to
    // grow and the direct-mapped caches to alias (stride 64 maps every
    // row onto one way), exercising every cold path against the
    // reference store.
    auto churn = [](RowStoreKind kind, std::vector<TraceEvent> &out) {
        const DimmProfile &p = DimmProfile::byId("S4");
        Dimm d(p, DramTiming::ddr4(p.freqMts), TrrConfig{});
        d.setRowStore(kind);
        Tracer tr(TraceConfig{true, CatAll, std::size_t{1} << 22});
        d.setTracer(&tr);
        Ns now = 0.0;
        std::uint64_t rows = d.geometry().rowsPerBank;
        for (std::uint64_t i = 0; i < 3000; ++i) {
            std::uint64_t row = (i * 977) % rows;      // scattered
            now += d.access({0, row, 0}, now).latency;
            std::uint64_t aliased = (i * 64) % rows;   // one cache way
            now += d.access({1, aliased, 0}, now).latency;
        }
        d.setTracer(nullptr);
        EXPECT_EQ(tr.dropped(), 0u);
        out = tr.events();
        return d.flipLog();
    };
    std::vector<TraceEvent> flat_tr, ref_tr;
    auto flat_fl = churn(RowStoreKind::Flat, flat_tr);
    auto ref_fl = churn(RowStoreKind::Reference, ref_tr);
    EXPECT_FALSE(flat_tr.empty());
    EXPECT_EQ(goldenSerialize(flat_tr), goldenSerialize(ref_tr));
    EXPECT_TRUE(sameFlips(flat_fl, ref_fl));
}

TEST(RowStore, SwitchAfterStateMaterializedPanics)
{
    const DimmProfile &p = DimmProfile::byId("S2");
    Dimm d(p, DramTiming::ddr4(p.freqMts), TrrConfig{});
    d.access({0, 100, 0}, 0.0);
    EXPECT_DEATH(d.setRowStore(RowStoreKind::Reference), "materialized");
    // reset() clears the state, after which switching is legal again.
    d.reset();
    d.setRowStore(RowStoreKind::Reference);
    EXPECT_EQ(d.rowStore(), RowStoreKind::Reference);
}

// ---------------------------------------------------------------------
// Dimm::reset() regression: mitigation engines must reset too
// ---------------------------------------------------------------------

TEST(DimmReset, ResetDeviceMatchesFreshDevice)
{
    // TRR sampling consumes seeded randomness on every ACT and RFM
    // keeps per-bank RAA counters; a reset device must replay both
    // exactly like a new one. The sampler's match threshold is set
    // unreachable so its rng stream and Misra-Gries tables are
    // exercised (and traced) without the refreshes suppressing every
    // flip, and RFM's interval is long enough that the hammer flips
    // before the first command.
    DimmProfile p = denseProfile();
    TrrConfig trr;
    trr.matchThreshold = 1u << 30;
    RfmConfig rfm;
    rfm.enabled = true;
    rfm.raaimt = 4096;
    // Minimal REF decay: the per-tick decrement would otherwise hold
    // RAA below an interval this long and no RFM would ever fire.
    rfm.refDecrement = 1;

    auto script = [](Dimm &d, std::vector<TraceEvent> &out) {
        Tracer tr(TraceConfig{
            true, CatDram | CatDisturb | CatTrr | CatFlip,
            std::size_t{1} << 21});
        d.setTracer(&tr);
        Ns now = 0.0;
        d.fillRow(0, 5001, 0x55, now);
        for (int i = 0; i < 3000; ++i) {
            now += d.access({0, 5000, 0}, now).latency;
            now += d.access({0, 5002, 0}, now).latency;
        }
        d.setTracer(nullptr);
        EXPECT_EQ(tr.dropped(), 0u);
        out = tr.events();
    };

    std::vector<TraceEvent> fresh_tr, reused_tr;
    Dimm fresh(p, DramTiming::ddr4(2666), trr, rfm);
    script(fresh, fresh_tr);

    Dimm reused(p, DramTiming::ddr4(2666), trr, rfm);
    script(reused, reused_tr); // dirty sampler tables, rng and RAA
    reused.reset();
    EXPECT_EQ(reused.totalActs(), 0u);
    EXPECT_EQ(reused.flipLog().size(), 0u);
    EXPECT_EQ(reused.rfmCommandCount(), 0u);
    script(reused, reused_tr);

    // Identical flip sequence — and identical full event stream,
    // which pins the sampler's randomness (TrrSample events) and the
    // RAA bookkeeping (RfmRefresh events) byte-for-byte.
    EXPECT_TRUE(sameFlips(fresh.flipLog(), reused.flipLog()));
    EXPECT_GT(fresh.flipLog().size(), 0u);
    EXPECT_EQ(goldenSerialize(fresh_tr), goldenSerialize(reused_tr));
    EXPECT_EQ(fresh.totalActs(), reused.totalActs());
    EXPECT_EQ(fresh.trrRefreshCount(), reused.trrRefreshCount());
    EXPECT_EQ(fresh.rfmCommandCount(), reused.rfmCommandCount());
    EXPECT_GE(fresh.rfmCommandCount(), 1u);
    // The scenario must actually exercise the sampler's rng.
    std::size_t samples = 0;
    for (const TraceEvent &e : fresh_tr)
        samples += e.kind == EventKind::TrrSample;
    EXPECT_GT(samples, 0u);
}

// ---------------------------------------------------------------------
// Flip-latch re-arm semantics (documented in dimm.hh)
// ---------------------------------------------------------------------

namespace
{

/** Double-sided hammer around a victim until well past threshold. */
Ns
hammerVictim(Dimm &d, std::uint64_t victim, Ns now, int rounds = 3000)
{
    for (int i = 0; i < rounds; ++i) {
        now += d.access({0, victim - 1, 0}, now).latency;
        now += d.access({0, victim + 1, 0}, now).latency;
    }
    return now;
}

} // namespace

TEST(FlipLatch, ReadDoesNotRearmLatches)
{
    DimmProfile p = denseProfile();
    Dimm d(p, DramTiming::ddr4(2666), noTrr());
    std::uint64_t victim = 5001;
    Ns now = 0.0;
    d.fillRow(0, victim, 0x55, now);

    now = hammerVictim(d, victim, now);
    auto first = d.flipLog();
    std::size_t victim_flips = 0;
    for (const FlipRecord &f : first)
        victim_flips += f.row == victim;
    ASSERT_GT(victim_flips, 0u);

    // Read-verify every flipped byte (the attacker checking its
    // template), then hammer again: the latched cells must not
    // re-flip, because their data was never rewritten.
    for (const FlipRecord &f : first) {
        if (f.row == victim)
            d.readByte({0, victim, f.bitOffset >> 3}, now);
    }
    now = hammerVictim(d, victim, now);
    EXPECT_EQ(d.flipLog().size(), first.size());

    // Rewriting the row re-arms everything: the same hammer produces
    // the same victim flips again.
    d.fillRow(0, victim, 0x55, now);
    now = hammerVictim(d, victim, now);
    std::size_t victim_flips_after = 0;
    for (std::size_t i = first.size(); i < d.flipLog().size(); ++i)
        victim_flips_after += d.flipLog()[i].row == victim;
    EXPECT_EQ(victim_flips_after, victim_flips);
}

TEST(FlipLatch, PartialWriteRearmsOnlyWrittenRange)
{
    DimmProfile p = denseProfile();
    Dimm d(p, DramTiming::ddr4(2666), noTrr());
    std::uint64_t victim = 7001;
    Ns now = 0.0;
    d.fillRow(0, victim, 0x55, now);

    now = hammerVictim(d, victim, now);
    std::set<std::uint32_t> flipped_bytes;
    for (const FlipRecord &f : d.flipLog()) {
        if (f.row == victim)
            flipped_bytes.insert(f.bitOffset >> 3);
    }
    // The dense profile flips cells in several distinct bytes; needed
    // so "only the written range" is distinguishable from "all".
    ASSERT_GE(flipped_bytes.size(), 2u);

    // Rewrite exactly one flipped byte; only its cells may flip again.
    std::uint32_t target = *flipped_bytes.begin();
    std::uint8_t fresh = 0x55;
    d.writeBytes({0, victim, target}, &fresh, 1, now);
    std::size_t before = d.flipLog().size();
    now = hammerVictim(d, victim, now);
    std::size_t new_flips = 0;
    for (std::size_t i = before; i < d.flipLog().size(); ++i) {
        const FlipRecord &f = d.flipLog()[i];
        if (f.row != victim)
            continue;
        EXPECT_EQ(f.bitOffset >> 3, target)
            << "cell outside the written byte re-flipped";
        ++new_flips;
    }
    EXPECT_GT(new_flips, 0u);
}

// ---------------------------------------------------------------------
// Lazy weak-cell derivation: a Flat row derives its cells only once its
// disturbance reaches the profile's floor (hcMin); the Reference store
// derives them on the first disturbance. Every script must leave both
// stores with byte-identical traces, flip logs and diffRow results.
// ---------------------------------------------------------------------

namespace
{

/** One device configuration for a Flat-vs-Reference run. */
struct DeviceSetup
{
    DimmProfile profile;
    DramTiming timing;
    TrrConfig trr;
    RfmConfig rfm;
    PracConfig prac;
    double flipSuppressProb = 0.0; //!< > 0 attaches a FaultInjector
};

/** What one run leaves behind. */
struct DeviceRun
{
    std::vector<TraceEvent> trace;
    std::vector<FlipRecord> flips;
    std::vector<FlipRecord> diffs; //!< diffRow results the script kept
    std::vector<std::uint8_t> reads; //!< readByte results the script kept
    std::uint64_t rows = 0;
    std::uint64_t cellRows = 0;
};

using DeviceScript = std::function<void(Dimm &, DeviceRun &)>;

DeviceSetup
ddr4Setup(const DimmProfile &p)
{
    return {p, DramTiming::ddr4(p.freqMts), TrrConfig{}, RfmConfig{},
            PracConfig{}};
}

/**
 * Rows whose accumulated disturbance reached `floor`, replayed from a
 * complete trace: Disturb adds its weight, DisturbReset and
 * FlipSuppressed zero the row, in emission order.
 */
std::size_t
rowsReachingFloor(const std::vector<TraceEvent> &trace, double floor)
{
    std::map<std::pair<std::uint32_t, std::uint64_t>, double> disturb;
    std::set<std::pair<std::uint32_t, std::uint64_t>> reached;
    for (const TraceEvent &e : trace) {
        auto key = std::make_pair(e.a, e.b);
        if (e.kind == EventKind::Disturb) {
            double &d = disturb[key];
            d += traceReal(e.c);
            if (d >= floor)
                reached.insert(key);
        } else if (e.kind == EventKind::DisturbReset
                   || e.kind == EventKind::FlipSuppressed) {
            disturb[key] = 0.0;
        }
    }
    return reached.size();
}

/** Floor below which the profile's weakCellsFor yields no threshold. */
double
cellFloorOf(const DimmProfile &p)
{
    return p.flippable && p.weakCellsPerRow > 0.0
               ? static_cast<double>(p.hcMin)
               : std::numeric_limits<double>::infinity();
}

DeviceRun
runDevice(const DeviceSetup &setup, RowStoreKind kind,
          const DeviceScript &script)
{
    Dimm d(setup.profile, setup.timing, setup.trr, setup.rfm, setup.prac);
    d.setRowStore(kind);
    FaultInjector inj(
        FaultSchedule::flipNonReproduction(setup.flipSuppressProb), 17);
    if (setup.flipSuppressProb > 0.0)
        d.setFaultInjector(&inj);
    Tracer tr(TraceConfig{true, CatAll, std::size_t{1} << 22});
    d.setTracer(&tr);
    DeviceRun run;
    script(d, run);
    d.setTracer(nullptr);
    d.setFaultInjector(nullptr);
    EXPECT_EQ(tr.dropped(), 0u);
    run.trace = tr.events();
    run.flips = d.flipLog();
    run.rows = d.rowCount();
    run.cellRows = d.cellRowCount();
    return run;
}

/**
 * Run `script` through both stores and require identical observable
 * results. The Flat store must have derived cells for exactly the rows
 * whose disturbance reached the floor. Returns {flat, reference}.
 */
std::pair<DeviceRun, DeviceRun>
expectStoresAgree(const DeviceSetup &setup, const DeviceScript &script)
{
    DeviceRun flat = runDevice(setup, RowStoreKind::Flat, script);
    DeviceRun ref = runDevice(setup, RowStoreKind::Reference, script);
    const std::string &id = setup.profile.id;
    EXPECT_FALSE(flat.trace.empty()) << id;
    // Compared as one bool: gtest's diff of two multi-megabyte strings
    // would take more memory than the run itself.
    EXPECT_TRUE(goldenSerialize(flat.trace) == goldenSerialize(ref.trace))
        << "trace diverged on " << id << " (" << flat.trace.size()
        << " vs " << ref.trace.size() << " events)";
    EXPECT_TRUE(sameFlips(flat.flips, ref.flips)) << id;
    EXPECT_TRUE(sameFlips(flat.diffs, ref.diffs)) << id;
    EXPECT_EQ(flat.reads, ref.reads) << id;
    EXPECT_EQ(flat.rows, ref.rows) << id;
    EXPECT_EQ(flat.cellRows,
              rowsReachingFloor(flat.trace, cellFloorOf(setup.profile)))
        << id;
    return {std::move(flat), std::move(ref)};
}

/**
 * SBDR-probe shaped churn: fresh same-bank row pairs across every
 * bank, a few alternating ACTs each, as TimingProbe::measurePair does.
 */
Ns
probeChurn(Dimm &d, Ns now, std::uint64_t pairs = 1500)
{
    const std::uint64_t rows = d.geometry().rowsPerBank;
    const std::uint32_t banks = d.geometry().flatBanks();
    for (std::uint64_t i = 0; i < pairs; ++i) {
        std::uint32_t bank = static_cast<std::uint32_t>(i % banks);
        std::uint64_t a = (i * 7919) % rows;
        std::uint64_t b = (a + 4099) % rows;
        for (int r = 0; r < 4; ++r) {
            now += d.access({bank, a, 0}, now).latency;
            now += d.access({bank, b, 0}, now).latency;
        }
    }
    return now;
}

/** Fill a victim neighbourhood, hammer it, and keep its diffs. */
Ns
hammerAndDiff(Dimm &d, DeviceRun &run, std::uint64_t victim, Ns now,
              int rounds)
{
    for (std::uint64_t r = victim - 2; r <= victim + 2; ++r)
        d.fillRow(0, r, 0x55, now);
    now = hammerVictim(d, victim, now, rounds);
    for (std::uint64_t r = victim - 2; r <= victim + 2; ++r) {
        auto diff = d.diffRow(0, r, 0x55, now);
        run.diffs.insert(run.diffs.end(), diff.begin(), diff.end());
    }
    return now;
}

} // namespace

TEST(LazyCells, ProbeChurnOfFreshRowsDerivesNoCells)
{
    // A probe's rows each see a few ACTs, far below HC_first: the Flat
    // store touches as many rows as the oracle but derives no cells.
    DeviceSetup s = ddr4Setup(DimmProfile::byId("S1"));
    auto [flat, ref] = expectStoresAgree(s, [](Dimm &d, DeviceRun &) {
        probeChurn(d, 0.0);
    });
    EXPECT_GT(flat.rows, 3000u);
    EXPECT_EQ(flat.cellRows, 0u);
    EXPECT_GT(ref.cellRows, 0u); // the oracle still derives eagerly
}

TEST(LazyCells, VictimAtExactlyHcMinFlipsOnTheFloorAct)
{
    // Every threshold clamps to hcMin, so the victim's lowest threshold
    // equals the floor and its cells derive on the very ACT that
    // brings its disturbance to exactly hcMin.
    DimmProfile p = denseProfile();
    p.hcLogMean = std::log(1000.0);
    const std::uint8_t fill = 0x55;
    std::uint64_t victim = 0;
    for (std::uint64_t r = 5001; r < 5100 && victim == 0; ++r) {
        for (const WeakCell &c : p.weakCellsFor(0, r)) {
            bool stored_one = (fill >> (c.bitOffset & 7)) & 1;
            if (c.threshold == p.hcMin && c.trueCell == stored_one)
                victim = r;
        }
    }
    ASSERT_NE(victim, 0u) << "no row with a flippable floor cell";

    DeviceSetup s = ddr4Setup(p);
    s.trr = noTrr();
    auto script = [victim, fill](std::uint32_t acts) {
        return [victim, fill, acts](Dimm &d, DeviceRun &) {
            Ns now = 0.0;
            d.fillRow(0, victim, fill, now);
            // Alternating aggressors: every access is an ACT worth
            // exactly 1.0 to the victim.
            for (std::uint32_t i = 0; i < acts; ++i) {
                std::uint64_t aggr = i % 2 ? victim + 1 : victim - 1;
                now += d.access({0, aggr, 0}, now).latency;
            }
        };
    };

    auto [below, below_ref] = expectStoresAgree(s, script(p.hcMin - 1));
    EXPECT_TRUE(below.flips.empty());
    EXPECT_EQ(below.cellRows, 0u);

    auto [at, at_ref] = expectStoresAgree(s, script(p.hcMin));
    ASSERT_FALSE(at.flips.empty());
    for (const FlipRecord &f : at.flips)
        EXPECT_EQ(f.row, victim);
    EXPECT_EQ(at.cellRows, 1u); // the victim alone reached the floor
}

TEST(LazyCells, DataWritesBeforeAndAfterDerivationMatchReference)
{
    DeviceSetup s = ddr4Setup(denseProfile());
    s.trr = noTrr();
    auto [flat, ref] = expectStoresAgree(s, [](Dimm &d, DeviceRun &run) {
        const std::uint64_t v = 5001;
        const std::uint8_t bytes[4] = {0xff, 0x00, 0xaa, 0x55};
        Ns now = 0.0;
        // Under the floor: data materializes before any cell does.
        d.writeBytes({0, v, 100}, bytes, 4, now);
        now = hammerVictim(d, v, now, 200);
        run.reads.push_back(d.readByte({0, v, 101}, now));
        d.fillRow(0, v, 0x55, now);
        d.writeBytes({0, v, 8}, bytes, 4, now);
        run.reads.push_back(d.readByte({0, v, 9}, now));
        // Past the floor: cells derive and flip.
        now = hammerAndDiff(d, run, v, now, 3000);
        // After derivation: rewrite each flipped byte (partial re-arm),
        // hammer, then refill (full re-arm) and hammer again.
        std::vector<FlipRecord> flipped = d.flipLog();
        for (const FlipRecord &f : flipped) {
            run.reads.push_back(d.readByte({0, f.row, f.bitOffset >> 3}, now));
            std::uint8_t b = 0x55;
            d.writeBytes({0, f.row, f.bitOffset >> 3}, &b, 1, now);
        }
        now = hammerVictim(d, v, now, 3000);
        now = hammerAndDiff(d, run, v, now, 3000);
        // Written, read and diffed without ever nearing the floor.
        d.fillRow(0, 9000, 0x33, now);
        run.reads.push_back(d.readByte({0, 9000, 7}, now));
        auto quiet = d.diffRow(0, 9000, 0x33, now);
        run.diffs.insert(run.diffs.end(), quiet.begin(), quiet.end());
    });
    EXPECT_FALSE(flat.flips.empty());
    EXPECT_FALSE(flat.diffs.empty());
    EXPECT_GT(flat.cellRows, 0u);
    EXPECT_LT(flat.cellRows, ref.cellRows);
}

TEST(LazyCells, FlipSuppressionDrawsMatchReference)
{
    // Injector draws happen only at threshold crossings, which the
    // lazy floor never hides: both stores consume the same stream.
    DeviceSetup s = ddr4Setup(denseProfile());
    s.trr = noTrr();
    s.flipSuppressProb = 0.5;
    auto [flat, ref] = expectStoresAgree(s, [](Dimm &d, DeviceRun &run) {
        Ns now = probeChurn(d, 0.0, 300);
        now = hammerAndDiff(d, run, 5001, now, 4000);
        hammerAndDiff(d, run, 6001, now, 4000);
    });
    std::size_t suppressed = 0;
    for (const TraceEvent &e : flat.trace)
        suppressed += e.kind == EventKind::FlipSuppressed;
    EXPECT_GT(suppressed, 0u);
    EXPECT_FALSE(flat.flips.empty());
}

TEST(LazyCells, ProfilesMatchReference)
{
    // S4: the most flip-prone DDR4 part. The TRR sampler runs (and
    // draws) but its match threshold is out of reach, so victims
    // cross HC_first.
    DeviceSetup s4 = ddr4Setup(DimmProfile::byId("S4"));
    s4.trr.matchThreshold = 1u << 30;
    // M1: not flippable, so neither store ever has a cell to scan.
    DeviceSetup m1 = ddr4Setup(DimmProfile::byId("M1"));
    // D1: DDR5 with RFM and PRAC both refreshing victims, each set
    // loose enough that a victim crosses HC_first first.
    const DimmProfile &d1p = DimmProfile::ddr5Sample();
    DeviceSetup d1{d1p, DramTiming::ddr5(d1p.freqMts), noTrr(),
                   RfmConfig{}, PracConfig{}};
    d1.rfm.enabled = true;
    d1.rfm.raaimt = 4096;
    d1.rfm.refDecrement = 1; // let RAA outgrow the per-REF decay
    d1.prac.enabled = true;
    d1.prac.threshold = 4096;
    // L1: LPDDR4 Half-Double board. With no direct distance-2
    // coupling, rows a+-2 are disturbed only by TRR's refreshes of
    // a+-1 (Dimm::disturbNeighbour), so their cells derive there.
    // Every threshold clamps to hcMin: the refresh that brings such a
    // row to the floor must also flip it, at the refresh's own time.
    DimmProfile l1p = DimmProfile::lpddr4Sample();
    l1p.weakCellsPerRow = 4.0;
    l1p.hcLogMean = std::log(20.0);
    l1p.hcLogSigma = 0.1;
    l1p.hcMin = 30;
    l1p.halfDoubleWeight = 0.0;
    DeviceSetup l1{l1p, DramTiming::lpddr4(l1p.freqMts), TrrConfig{},
                   RfmConfig{}, PracConfig{}};
    l1.trr.sampleProb = 0.5;
    l1.trr.matchThreshold = 8;
    l1.trr.maxRefreshesPerTick = 4;

    auto script = [](Dimm &d, DeviceRun &run) {
        Ns now = probeChurn(d, 0.0, 500);
        now = hammerAndDiff(d, run, 5001, now, 20000);
        hammerAndDiff(d, run, 7001, now, 5000);
    };
    auto [s4_flat, s4_ref] = expectStoresAgree(s4, script);
    EXPECT_GT(s4_flat.cellRows, 0u);
    EXPECT_FALSE(s4_flat.flips.empty());

    auto [m1_flat, m1_ref] = expectStoresAgree(m1, script);
    EXPECT_EQ(m1_flat.cellRows, 0u);
    EXPECT_TRUE(m1_flat.flips.empty());

    auto [d1_flat, d1_ref] = expectStoresAgree(d1, script);
    std::size_t rfm_refreshes = 0, prac_alerts = 0;
    for (const TraceEvent &e : d1_flat.trace) {
        rfm_refreshes += e.kind == EventKind::RfmRefresh;
        prac_alerts += e.kind == EventKind::PracAlert;
    }
    EXPECT_GT(rfm_refreshes, 0u);
    EXPECT_GT(prac_alerts, 0u);
    EXPECT_GT(d1_flat.cellRows, 0u);

    auto [l1_flat, l1_ref] = expectStoresAgree(l1, script);
    std::size_t refresh_disturbs = 0;
    for (const TraceEvent &e : l1_flat.trace) {
        refresh_disturbs += e.kind == EventKind::Disturb
                            && traceReal(e.c) == l1p.refreshDisturbWeight;
    }
    EXPECT_GT(refresh_disturbs, 0u);
    // Flips three rows from a hammered victim can only come from the
    // refresh-disturb path.
    std::size_t half_double_flips = 0;
    for (const FlipRecord &f : l1_flat.flips) {
        half_double_flips += f.row == 4998 || f.row == 5004
                             || f.row == 6998 || f.row == 7004;
    }
    EXPECT_GT(half_double_flips, 0u);
}

TEST(LazyCells, HammerSessionDerivesOnlyRowsThatReachTheFloor)
{
    // The pinned TRR-evasion hammer through the full stack: the Flat
    // store derives a cell list for exactly the rows whose replayed
    // disturbance reached hcMin.
    std::vector<FlipRecord> flips;
    std::uint64_t cell_rows = 0;
    auto trace = trrEvasionRun(9, false, flips, &cell_rows);
    EXPECT_GT(cell_rows, 0u);
    EXPECT_EQ(cell_rows,
              rowsReachingFloor(trace,
                                cellFloorOf(DimmProfile::byId("S2"))));
}
