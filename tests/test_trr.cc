/**
 * @file
 * Tests for the TRR / pTRR mitigation models: uniform double-sided
 * hammering must be caught, non-uniform decoy churn must evade the
 * sampler, and pTRR must stop everything.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/dimm.hh"
#include "dram/trr.hh"
#include "hammer/hammer_session.hh"
#include "hammer/tuned_configs.hh"
#include "trace/tracer.hh"

using namespace rho;

TEST(TrrSampler, CountsAndTriggers)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0; // deterministic for the unit test
    cfg.matchThreshold = 10;
    TrrSampler s(cfg, 4);
    for (int i = 0; i < 12; ++i)
        s.observeAct(1, 777);
    auto targets = s.onRefreshTick();
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0].bank, 1u);
    EXPECT_EQ(targets[0].row, 777u);
    // The triggered entry is cleared.
    EXPECT_TRUE(s.onRefreshTick().empty());
}

TEST(TrrSampler, MisraGriesChurnEvictsAggressors)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0;
    cfg.counters = 4;
    cfg.matchThreshold = 10;
    TrrSampler s(cfg, 1);
    // Interleave one aggressor with a sea of distinct decoys: the
    // decrement churn keeps the aggressor's count below threshold.
    for (int round = 0; round < 400; ++round) {
        s.observeAct(0, 42);
        for (int d = 0; d < 8; ++d)
            s.observeAct(0, 10000 + round * 8 + d);
    }
    EXPECT_TRUE(s.onRefreshTick().empty());
}

TEST(TrrSampler, CapacityPerTick)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0;
    cfg.matchThreshold = 5;
    cfg.maxRefreshesPerTick = 2;
    TrrSampler s(cfg, 8);
    for (std::uint32_t b = 0; b < 4; ++b) {
        for (int i = 0; i < 8; ++i)
            s.observeAct(b, 100 + b);
    }
    EXPECT_EQ(s.onRefreshTick().size(), 2u); // capacity-limited
    EXPECT_EQ(s.onRefreshTick().size(), 2u); // remainder next tick
}

TEST(TrrSampler, DisabledSamplerDoesNothing)
{
    TrrConfig cfg;
    cfg.enabled = false;
    TrrSampler s(cfg, 2);
    for (int i = 0; i < 1000; ++i)
        s.observeAct(0, 1);
    EXPECT_TRUE(s.onRefreshTick().empty());
    EXPECT_EQ(s.targetedRefreshes(), 0u);
}

namespace
{

/**
 * The per-bank vector-of-vectors sampler over Rng that TrrSampler's
 * flat tables and ReplayRng replaced, kept as the differential oracle.
 */
class RngTrrSampler
{
  public:
    RngTrrSampler(const TrrConfig &cfg_, std::uint32_t num_banks)
        : cfg(cfg_), tables(num_banks), rng(cfg_.seed)
    {
    }

    void
    reset()
    {
        for (auto &table : tables)
            table.clear();
        rng = Rng(cfg.seed);
        issued = 0;
    }

    std::optional<TrrTarget>
    observeAct(std::uint32_t bank, std::uint64_t row, Ns now)
    {
        std::optional<TrrTarget> ptrr_hit;
        if (cfg.ptrr && rng.chance(cfg.ptrrSampleProb)) {
            ++issued;
            ptrr_hit = TrrTarget{bank, row};
        }
        if (!cfg.enabled || !rng.chance(cfg.sampleProb))
            return ptrr_hit;
        auto &table = tables[bank];
        for (auto &e : table) {
            if (e.row == row) {
                ++e.count;
                RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row,
                          e.count);
                return ptrr_hit;
            }
        }
        if (table.size() < cfg.counters) {
            table.push_back({row, 1});
            RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row, 1);
            return ptrr_hit;
        }
        RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row, 0);
        for (auto &e : table) {
            if (e.count > 0)
                --e.count;
        }
        std::erase_if(table, [&](const Entry &e) {
            if (e.count != 0)
                return false;
            RHO_TRACE(tracer, now, EventKind::TrrEvict, 0, bank, e.row, 0);
            return true;
        });
        return ptrr_hit;
    }

    std::vector<TrrTarget>
    onRefreshTick()
    {
        std::vector<TrrTarget> out;
        if (!cfg.enabled)
            return out;
        struct Cand { std::uint32_t bank; std::size_t idx; std::uint32_t cnt; };
        std::vector<Cand> cands;
        for (std::uint32_t b = 0; b < tables.size(); ++b) {
            for (std::size_t i = 0; i < tables[b].size(); ++i) {
                if (tables[b][i].count >= cfg.matchThreshold)
                    cands.push_back({b, i, tables[b][i].count});
            }
        }
        std::sort(cands.begin(), cands.end(),
                  [](const Cand &a, const Cand &b) { return a.cnt > b.cnt; });
        std::vector<std::pair<std::uint32_t, std::uint64_t>> to_remove;
        for (const auto &c : cands) {
            if (out.size() >= cfg.maxRefreshesPerTick)
                break;
            out.push_back({c.bank, tables[c.bank][c.idx].row});
            to_remove.push_back({c.bank, tables[c.bank][c.idx].row});
        }
        for (auto [b, row] : to_remove) {
            std::erase_if(tables[b],
                          [row](const Entry &e) { return e.row == row; });
        }
        issued += out.size();
        return out;
    }

    std::uint64_t targetedRefreshes() const { return issued; }
    void setTracer(Tracer *t) { tracer = t; }

  private:
    struct Entry
    {
        std::uint64_t row;
        std::uint32_t count;
    };

    TrrConfig cfg;
    std::vector<std::vector<Entry>> tables;
    Rng rng;
    std::uint64_t issued = 0;
    Tracer *tracer = nullptr;
};

bool
sameEvents(const std::vector<TraceEvent> &x, const std::vector<TraceEvent> &y)
{
    if (x.size() != y.size())
        return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i].when != y[i].when || x[i].kind != y[i].kind
            || x[i].a != y[i].a || x[i].b != y[i].b || x[i].c != y[i].c)
            return false;
    }
    return true;
}

} // namespace

TEST(TrrSampler, MatchesRngSamplerOracle)
{
    // Random ACT streams — a few hot rows that cross the threshold
    // among decoys that churn the tables — with refresh ticks and one
    // mid-stream reset().
    constexpr std::uint32_t kBanks = 4;
    TraceConfig tc;
    tc.enabled = true;
    tc.categories = CatTrr;
    tc.capacity = std::size_t{1} << 16;
    for (unsigned counters : {1u, 4u, 16u}) {
        for (bool ptrr : {false, true}) {
            for (double prob : {0.0, 0.25, 1.0}) {
                TrrConfig cfg;
                cfg.counters = counters;
                cfg.ptrr = ptrr;
                cfg.ptrrSampleProb = 0.01;
                cfg.sampleProb = prob;
                cfg.matchThreshold = 6;
                TrrSampler fast(cfg, kBanks);
                RngTrrSampler oracle(cfg, kBanks);
                Tracer fast_tr(tc), oracle_tr(tc);
                fast.setTracer(&fast_tr);
                oracle.setTracer(&oracle_tr);
                std::string tag = "counters " + std::to_string(counters)
                    + " ptrr " + std::to_string(ptrr) + " p "
                    + std::to_string(prob);

                Rng stream(counters * 100 + ptrr * 10 + prob * 4);
                std::size_t targets = 0;
                std::size_t ptrr_hits = 0;
                for (int i = 0; i < 20000; ++i) {
                    Ns now = i * 45.0;
                    if (i == 9000) {
                        fast.reset();
                        oracle.reset();
                    }
                    if (i % 97 == 96) {
                        auto a = fast.onRefreshTick(now);
                        auto b = oracle.onRefreshTick();
                        ASSERT_EQ(a.size(), b.size()) << tag << " act " << i;
                        for (std::size_t t = 0; t < a.size(); ++t) {
                            ASSERT_EQ(a[t].bank, b[t].bank) << tag;
                            ASSERT_EQ(a[t].row, b[t].row) << tag;
                        }
                        targets += a.size();
                    }
                    auto bank = static_cast<std::uint32_t>(
                        stream.uniformInt(0, kBanks - 1));
                    std::uint64_t row = stream.chance(0.6)
                        ? stream.uniformInt(100, 104)
                        : stream.uniformInt(1000, 1400);
                    auto a = fast.observeAct(bank, row, now);
                    auto b = oracle.observeAct(bank, row, now);
                    ASSERT_EQ(a.has_value(), b.has_value()) << tag;
                    ptrr_hits += a.has_value();
                    if (a) {
                        ASSERT_EQ(a->bank, b->bank) << tag;
                        ASSERT_EQ(a->row, b->row) << tag;
                    }
                    ASSERT_EQ(fast.targetedRefreshes(),
                              oracle.targetedRefreshes()) << tag;
                }
                EXPECT_EQ(fast_tr.dropped(), 0u) << tag;
                EXPECT_TRUE(sameEvents(fast_tr.events(), oracle_tr.events()))
                    << tag;
                // The streams did exercise the sampler (a single
                // counter is churned too hard to ever trigger).
                if (prob > 0.0) {
                    EXPECT_GT(fast_tr.size(), 0u) << tag;
                }
                if (prob > 0.0 && counters > 1) {
                    EXPECT_GT(targets, 0u) << tag;
                }
                EXPECT_EQ(ptrr_hits > 0, ptrr) << tag;
            }
        }
    }
}

namespace
{

/** Double-sided hammer loop; returns flips on the victim. */
std::size_t
doubleSidedFlips(const TrrConfig &trr, int pairs = 12000)
{
    DimmProfile p = DimmProfile::byId("S4");
    p.weakCellsPerRow = 4.0;
    p.hcLogMean = std::log(4000.0);
    p.hcLogSigma = 0.1;
    p.hcMin = 3000;
    Dimm d(p, DramTiming::ddr4(2666), trr);
    d.fillRow(0, 5001, 0x55, 0.0);
    Ns now = 0.0;
    for (int i = 0; i < pairs; ++i) {
        now += d.access({0, 5000, 0}, now).latency;
        now += d.access({0, 5002, 0}, now).latency;
    }
    return d.diffRow(0, 5001, 0x55, now).size();
}

} // namespace

TEST(Trr, CatchesDoubleSidedHammering)
{
    EXPECT_EQ(doubleSidedFlips(TrrConfig{}), 0u);
}

TEST(Trr, WithoutTrrDoubleSidedFlips)
{
    TrrConfig off;
    off.enabled = false;
    EXPECT_GT(doubleSidedFlips(off), 0u);
}

/**
 * Regression for the Misra–Gries evasion mechanism DESIGN.md §3.2
 * rests on: a sampled aggressor whose counter has accumulated real
 * weight is *evicted* by a stream of distinct decoy activations, so
 * it never reaches the trigger threshold.
 */
TEST(TrrEvasion, DecoyChurnEvictsASampledAggressorCounter)
{
    TrrConfig cfg;
    cfg.sampleProb = 1.0; // deterministic for the regression
    cfg.counters = 4;
    cfg.matchThreshold = 16;
    TrrSampler s(cfg, 1);

    // The aggressor accumulates weight just below the threshold...
    for (int i = 0; i < 12; ++i)
        s.observeAct(0, 42);
    // ...then Blacksmith-style decoys (all distinct rows) churn the
    // table: Misra-Gries decrements drain the aggressor's counter and
    // finally evict the entry.
    for (int d = 0; d < 200; ++d)
        s.observeAct(0, 20000 + d);
    // Even hammering the aggressor some more afterwards stays below
    // threshold: its history was wiped with the eviction.
    for (int i = 0; i < 12; ++i)
        s.observeAct(0, 42);
    EXPECT_TRUE(s.onRefreshTick().empty());

    // Control: the same total aggressor weight without decoy churn
    // trips the sampler.
    TrrSampler control(cfg, 1);
    for (int i = 0; i < 24; ++i)
        control.observeAct(0, 42);
    auto targets = control.onRefreshTick();
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0].row, 42u);
}

/**
 * End-to-end pin of the evasion behaviour through the full attack
 * stack: with in-DRAM TRR enabled, the uniform double-sided pattern
 * is caught (zero flips) while a Blacksmith-style non-uniform
 * pattern's decoy activations evade the sampler and produce flips.
 */
TEST(TrrEvasion, NonUniformFlipsWhereUniformIsCaught)
{
    const std::uint64_t budget = 300000;
    HammerConfig cfg = rhoConfig(Arch::CometLake, true, budget);

    // Uniform double-sided: TRR locks onto the single aggressor pair.
    {
        MemorySystem sys(Arch::CometLake, DimmProfile::byId("S4"),
                         TrrConfig{}, 40);
        HammerSession session(sys, 40);
        HammerPattern uniform = HammerPattern::doubleSided();
        auto out =
            session.hammer(uniform, HammerLocation{1, 5000}, cfg);
        EXPECT_EQ(out.flips, 0u);
        EXPECT_GT(sys.dimm().trrRefreshCount(), 0u);
    }

    // Non-uniform: decoy churn evades the sampler; across a few
    // seeds the pattern family reliably produces flips.
    std::uint64_t nonuniform_flips = 0;
    for (std::uint64_t seed = 1; seed <= 6 && nonuniform_flips == 0;
         ++seed) {
        MemorySystem sys(Arch::CometLake, DimmProfile::byId("S4"),
                         TrrConfig{}, seed);
        HammerSession session(sys, seed);
        Rng rng(seed);
        HammerPattern pattern = HammerPattern::randomNonUniform(rng);
        auto loc = session.randomLocation(pattern, cfg);
        nonuniform_flips += session.hammer(pattern, loc, cfg).flips;
    }
    EXPECT_GT(nonuniform_flips, 0u);
}

TEST(Trr, PtrrStopsEvasiveHammering)
{
    // pTRR samples every ACT with small probability, which no access
    // pattern can evade: even with the in-DRAM TRR disabled, the
    // victim keeps being refreshed.
    TrrConfig ptrr;
    ptrr.enabled = false;
    ptrr.ptrr = true;
    ptrr.ptrrSampleProb = 2e-3;
    EXPECT_EQ(doubleSidedFlips(ptrr), 0u);
}
