#include "hammer/sweep.hh"

#include <algorithm>

namespace rho
{

std::uint64_t
campaignKey(const SystemSpec &spec, const HammerConfig &cfg,
            std::uint64_t seed)
{
    std::uint64_t key = hashCombine(seed, 0x9a3fULL);
    key = hashCombine(key, static_cast<std::uint64_t>(spec.arch));
    for (char c : spec.dimm->id)
        key = hashCombine(key, static_cast<std::uint64_t>(c));
    key = hashCombine(key, static_cast<std::uint64_t>(cfg.instr));
    key = hashCombine(key, static_cast<std::uint64_t>(cfg.mode));
    key = hashCombine(key, cfg.numBanks);
    key = hashCombine(key, cfg.obfuscate ? 1 : 0);
    key = hashCombine(key, static_cast<std::uint64_t>(cfg.barrier));
    key = hashCombine(key, cfg.nopCount);
    key = hashCombine(key, cfg.accessBudget);
    key = hashCombine(key, cfg.victimFill);
    key = hashCombine(key, cfg.aggrFill);
    key = hashCombine(key, cfg.refSync ? 1 : 0);
    // Mitigation configuration: a bypass search runs many campaigns
    // against one checkpoint path that differ only in TRR/RFM/PRAC
    // settings; the key must separate them or a journal recorded under
    // one config would be replayed under another.
    key = hashCombine(key, spec.trr.enabled ? 1 : 0);
    key = hashCombine(key, spec.trr.counters);
    key = hashCombine(key, traceBits(spec.trr.sampleProb));
    key = hashCombine(key, spec.trr.matchThreshold);
    key = hashCombine(key, spec.trr.maxRefreshesPerTick);
    key = hashCombine(key, spec.trr.ptrr ? 1 : 0);
    key = hashCombine(key, traceBits(spec.trr.ptrrSampleProb));
    key = hashCombine(key, spec.trr.seed);
    key = hashCombine(key, spec.rfm.enabled ? 1 : 0);
    key = hashCombine(key, spec.rfm.raaimt);
    key = hashCombine(key, spec.rfm.raammt);
    key = hashCombine(key, spec.rfm.refDecrement);
    key = hashCombine(key, spec.rfm.serviceDelayActs);
    key = hashCombine(key, spec.rfm.victimsPerRfm);
    key = hashCombine(key, spec.rfm.recencyDepth);
    key = hashCombine(key, spec.prac.enabled ? 1 : 0);
    key = hashCombine(key, spec.prac.threshold);
    key = hashCombine(key, spec.prac.aboSlots);
    // On-die ECC and refresh boosting change which flips a campaign
    // observes, so they separate journal identities too.
    key = hashCombine(key, spec.ecc.enabled ? 1 : 0);
    key = hashCombine(key, spec.ecc.codewordBytes);
    key = hashCombine(key, traceBits(spec.refreshBoost));
    return key;
}

HammerLocation
sweepLocationAt(const DimmGeometry &geom, const HammerPattern &pattern,
                std::uint64_t seed, unsigned index)
{
    std::uint64_t span = pattern.footprintRows() + 8;
    HammerLocation loc;
    loc.bank = static_cast<std::uint32_t>(hashCombine(seed, index)
                                          % geom.flatBanks());
    // Non-repeating rows: stride the bank space deterministically.
    std::uint64_t region =
        (geom.rowsPerBank - 16) / std::max<std::uint64_t>(span, 1);
    std::uint64_t slot = (index * 2654435761ULL) % region;
    loc.baseRow = 8 + slot * span;
    return loc;
}

SweepResult
sweep(HammerSession &session, const HammerPattern &pattern,
      const HammerConfig &cfg, unsigned num_locations, std::uint64_t seed)
{
    SweepResult res;
    MemorySystem &sys = session.system();
    const auto &geom = sys.dimm().geometry();

    Ns t0 = sys.now();
    for (unsigned l = 0; l < num_locations; ++l) {
        HammerLocation loc = sweepLocationAt(geom, pattern, seed, l);
        HammerOutcome out = session.hammer(pattern, loc, cfg);
        res.totalFlips += out.flips;
        res.flipsPerLocation.push_back(out.flips);
        res.cumulativeTimeNs.push_back(sys.now() - t0);
        for (const auto &f : out.flipList)
            res.flipList.push_back(f);
    }
    res.simTimeNs = sys.now() - t0;
    return res;
}

std::uint64_t
sweepJournalKey(const SystemSpec &spec, const HammerConfig &cfg,
                const SweepParams &params, const HammerPattern &pattern,
                std::uint64_t seed)
{
    std::uint64_t key = campaignKey(spec, cfg, seed);
    key = hashCombine(key, params.numLocations);
    key = hashCombine(key, pattern.id());
    // The id alone names a pattern family (every doubleSided(n) shares
    // one); the fingerprint separates periods and genes.
    key = hashCombine(key, pattern.genomeFingerprint());
    return key;
}

SweepResult
sweepCampaign(const SystemSpec &spec, const HammerPattern &pattern,
              const HammerConfig &cfg, const SweepParams &params,
              std::uint64_t seed, ParallelStats *stats,
              MetricsRegistry *metrics, std::vector<TraceEvent> *trace)
{
    Campaign<SweepRecord> campaign(
        spec, seed,
        {.jobs = params.jobs,
         .mask = params.taskMask,
         .trace = trace,
         .journalPath = params.checkpointPath,
         .journalKey = sweepJournalKey(spec, cfg, params, pattern, seed),
         .journalKind = SweepJournalKind,
         .journal = params.journal});
    auto tasks = campaign.run(
        0, params.numLocations,
        [&](unsigned i, MemorySystem &sys, std::uint64_t task_seed) {
            HammerSession session(sys, task_seed);
            HammerLocation loc =
                sweepLocationAt(spec.dimm->geom, pattern, seed, i);
            Ns t0 = sys.now();
            HammerOutcome out = session.hammer(pattern, loc, cfg);
            SweepRecord r;
            r.flips = out.flips;
            r.simTimeNs = sys.now() - t0;
            r.flipList = std::move(out.flipList);
            r.dramAccesses = out.perf.dramAccesses;
            return r;
        });

    // Merge in task-index order: identical output for any job count.
    SweepResult res;
    for (const auto &t : tasks) {
        const SweepRecord &r = t.record;
        res.totalFlips += r.flips;
        res.flipsPerLocation.push_back(r.flips);
        res.simTimeNs += r.simTimeNs;
        res.cumulativeTimeNs.push_back(res.simTimeNs);
        res.flipList.insert(res.flipList.end(), r.flipList.begin(),
                            r.flipList.end());
        if (metrics)
            addTaskMetrics(*metrics, r.device, r.dramAccesses, r.flips);
    }
    if (metrics)
        metrics->add("campaign.locations", tasks.size());
    if (stats) {
        *stats = campaign.stats();
        stats->simNs = res.simTimeNs;
    }
    return res;
}

} // namespace rho
