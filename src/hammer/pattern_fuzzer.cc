#include "hammer/pattern_fuzzer.hh"

#include "hammer/sweep.hh"

namespace rho
{

PatternFuzzer::PatternFuzzer(HammerSession &session_, std::uint64_t seed)
    : session(session_), rng(seed)
{
}

bool
rejectParams(FuzzResult &res, std::string err)
{
    if (err.empty())
        return false;
    res.failure = FailureCode::InvalidPatternParams;
    res.failureReason = std::move(err);
    return true;
}

void
finishTrials(FuzzResult &res, std::uint64_t trials)
{
    if (trials > 0 && res.unplaceablePatterns == trials) {
        res.failure = FailureCode::PatternUnplaceable;
        res.failureReason =
            "every pattern footprint exceeded the bank's row space";
    }
}

TrialRecord
trialPattern(MemorySystem &sys, std::uint64_t task_seed,
             const HammerPattern &pattern, const HammerConfig &cfg,
             unsigned locations)
{
    HammerSession session(sys, task_seed);
    TrialRecord r;
    Ns t0 = sys.now();
    for (unsigned l = 0; l < locations; ++l) {
        LocationPick pick = session.tryRandomLocation(pattern, cfg);
        if (!pick.ok()) {
            r.unplaceable = 1;
            break;
        }
        HammerOutcome out = session.hammer(pattern, *pick.loc, cfg);
        r.flips += out.flips;
        r.dramAccesses += out.perf.dramAccesses;
    }
    r.simTimeNs = sys.now() - t0;
    return r;
}

FuzzResult
PatternFuzzer::run(const HammerConfig &cfg, const FuzzParams &params)
{
    FuzzResult res;
    if (rejectParams(res, patternParamsError(params.patternParams)))
        return res;
    HammerConfig run_cfg = cfg;
    if (params.refSync)
        run_cfg.refSync = true;
    Ns t0 = session.system().now();

    for (unsigned i = 0; i < params.numPatterns; ++i) {
        HammerPattern pattern =
            HammerPattern::randomNonUniform(rng, params.patternParams);
        LocationPick first = session.tryRandomLocation(pattern, run_cfg);
        if (!first.ok()) {
            ++res.unplaceablePatterns;
            continue;
        }
        std::uint64_t pattern_flips = 0;
        for (unsigned l = 0; l < params.locationsPerPattern; ++l) {
            HammerLocation loc =
                l == 0 ? *first.loc
                       : session.randomLocation(pattern, run_cfg);
            HammerOutcome out = session.hammer(pattern, loc, run_cfg);
            pattern_flips += out.flips;
            res.dramAccesses += out.perf.dramAccesses;
        }
        if (pattern_flips > 0) {
            ++res.effectivePatterns;
            res.totalFlips += pattern_flips;
        }
        if (pattern_flips > res.bestPatternFlips) {
            res.bestPatternFlips = pattern_flips;
            res.bestPattern = pattern;
        }
    }
    res.simTimeNs = session.system().now() - t0;
    finishTrials(res, params.numPatterns);
    return res;
}

std::uint64_t
fuzzJournalKey(const SystemSpec &spec, const HammerConfig &cfg,
               const FuzzParams &params, std::uint64_t seed)
{
    // Fold params.refSync into the config the same way fuzzCampaign
    // applies it, so the journal key matches the campaign actually run.
    HammerConfig eff = cfg;
    if (params.refSync)
        eff.refSync = true;
    std::uint64_t key = campaignKey(spec, eff, seed);
    key = hashCombine(key, params.numPatterns);
    key = hashCombine(key, params.locationsPerPattern);
    key = hashCombine(key, params.patternParams.minPairs);
    key = hashCombine(key, params.patternParams.maxPairs);
    key = hashCombine(key, params.patternParams.minPeriodLog2);
    key = hashCombine(key, params.patternParams.maxPeriodLog2);
    key = hashCombine(key, params.patternParams.maxFreqLog2);
    key = hashCombine(key, params.patternParams.maxAmpLog2);
    key = hashCombine(key, params.patternParams.maxRowSpread);
    return key;
}

FuzzResult
fuzzCampaign(const SystemSpec &spec, const HammerConfig &cfg,
             const FuzzParams &params, std::uint64_t seed,
             ParallelStats *stats, MetricsRegistry *metrics,
             std::vector<TraceEvent> *trace)
{
    FuzzResult res;
    if (rejectParams(res, patternParamsError(params.patternParams)))
        return res;
    HammerConfig run_cfg = cfg;
    if (params.refSync)
        run_cfg.refSync = true;
    // Task i's pattern is a pure function of its seed: the body builds
    // it to run it, the fold rebuilds it only for a new best.
    auto pattern_of = [&](std::uint64_t task_seed) {
        Rng pattern_rng(task_seed);
        return HammerPattern::randomNonUniform(pattern_rng,
                                               params.patternParams);
    };

    Campaign<TrialRecord> campaign(
        spec, seed,
        {.jobs = params.jobs,
         .mask = params.taskMask,
         .trace = trace,
         .journalPath = params.checkpointPath,
         .journalKey = fuzzJournalKey(spec, cfg, params, seed),
         .journalKind = FuzzJournalKind,
         .journal = params.journal});
    auto tasks = campaign.run(
        0, params.numPatterns,
        [&](unsigned, MemorySystem &sys, std::uint64_t task_seed) {
            return trialPattern(sys, task_seed, pattern_of(task_seed),
                                run_cfg, params.locationsPerPattern);
        });

    for (const auto &t : tasks) {
        foldTrial(res, t.record,
                  [&] { return pattern_of(hashCombine(seed, t.index)); },
                  metrics);
    }
    if (metrics)
        metrics->add("campaign.patterns", tasks.size());
    if (stats) {
        *stats = campaign.stats();
        stats->simNs = res.simTimeNs;
    }
    finishTrials(res, tasks.size());
    return res;
}

} // namespace rho
