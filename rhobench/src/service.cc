/**
 * @file
 * Workload `service`: short fuzz tasks through the forked campaign
 * service. Each call is one service::serviceFuzzCampaign on the DDR5
 * sample DIMM with RFM at its Default level and PRAC (threshold 512),
 * on Raptor Lake: 64 patterns of one location each at a 60k-access
 * budget, 2 workers over 4 shards, fsync off, journals in a per-call
 * directory under the run's temp directory. A task is one pattern.
 * 64 rather than 32 patterns per call: the per-call fork and polling
 * cost swings with host scheduling, and at 32 it made the rates vary
 * twice as much from run to run.
 *
 * Why: with tasks this short, fork, supervision, shard-journal writes
 * and the merged-journal replay take a visible share of the host time,
 * and so do per-task instantiate, pattern generation and buildKernel. It
 * also runs the RFM and PRAC paths of the DIMM, which `sweep` never
 * enables. A hot-path gain should barely show here.
 */

#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "common/checkpoint.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/tuned_configs.hh"
#include "harness.hh"
#include "service/campaign_service.hh"
#include "service/shard.hh"

namespace rhobench
{

using namespace rho;

namespace
{

constexpr Arch serviceArch = Arch::RaptorLake;

/** Directory index of the set-up's warm-up calls. */
constexpr std::uint64_t setupIndex = ~std::uint64_t{0};

SystemSpec
serviceSpec()
{
    SystemSpec spec(serviceArch, DimmProfile::ddr5Sample(), TrrConfig{},
                    RfmConfig::forLevel(RfmLevel::Default));
    spec.prac.enabled = true;
    spec.prac.threshold = 512;
    return spec;
}

bool
sameFuzz(const FuzzResult &a, const FuzzResult &b)
{
    bool same_best = a.bestPattern.has_value() == b.bestPattern.has_value();
    if (same_best && a.bestPattern)
        same_best = a.bestPattern->genome() == b.bestPattern->genome();
    return same_best && a.totalFlips == b.totalFlips
           && a.bestPatternFlips == b.bestPatternFlips
           && a.effectivePatterns == b.effectivePatterns
           && a.unplaceablePatterns == b.unplaceablePatterns
           && sameBits(a.simTimeNs, b.simTimeNs)
           && a.dramAccesses == b.dramAccesses && a.failure == b.failure;
}

/** One supervised call and what the checks need of it. */
struct Call
{
    std::uint64_t seed = 0;
    double seconds = 0.0;
    std::uint64_t acts = 0;
    std::size_t restored = 0; //!< records in the merged journal
    FuzzResult result;
    service::ServiceReport report;
};

class ServiceWorkload
{
  public:
    ServiceWorkload(const Options &opt_, Checks &checks_)
        : opt(opt_), spec(serviceSpec()),
          cfg(rhoConfig(serviceArch, true, opt_.tiny ? 10000 : 60000)),
          checks(checks_)
    {
        params.numPatterns = opt.tiny ? 4 : 64;
        params.locationsPerPattern = 1;
        params.jobs = benchJobs;
        svc.supervisor.workers = benchJobs;
        svc.shards = 4;
        svc.jobsPerWorker = 1;
        svc.fsync = FsyncPolicy::Never;
    }

    std::uint64_t
    callSeed(std::uint64_t seed, std::uint64_t index) const
    {
        return hashCombine(hashCombine(seed, 0x5e41), index);
    }

    /** Each call journals into a directory of its own. */
    std::string
    callDir(std::uint64_t index) const
    {
        return opt.tmpDir + "/call" + std::to_string(index);
    }

    service::ServiceParams
    serviceFor(std::uint64_t index) const
    {
        service::ServiceParams call = svc;
        std::filesystem::create_directories(callDir(index));
        call.journalBase = callDir(index) + "/fuzz";
        return call;
    }

    void
    clean(std::uint64_t index) const
    {
        std::error_code ec;
        std::filesystem::remove_all(callDir(index), ec);
    }

    std::uint64_t
    journalKey(std::uint64_t seed) const
    {
        return fuzzJournalKey(spec, cfg, params, seed);
    }

    /** One supervised call, timed; its files stay until clean(). */
    Call
    supervised(std::uint64_t index, std::uint64_t seed) const
    {
        Call c;
        c.seed = seed;
        service::ServiceParams call = serviceFor(index);
        service::FuzzServiceOutcome o;
        c.seconds = timed([&] {
            o = service::serviceFuzzCampaign(spec, cfg, params, seed, call);
        });
        c.result = std::move(o.result);
        c.report = std::move(o.report);
        return c;
    }

    /**
     * Sum the simulated ACTs of the merged journal's task records (the
     * fourth field of a fuzz record), outside any timed call.
     */
    void
    readJournal(Call &c) const
    {
        JournalOptions jo;
        jo.fsync = FsyncPolicy::Never;
        TaskJournal merged(c.report.mergedJournalPath, journalKey(c.seed),
                           FuzzJournalKind, jo);
        c.restored = merged.restoredCount();
        for (const auto &[index, payload] : merged.entries()) {
            std::istringstream in(payload);
            std::string field;
            for (int f = 0; f < 4 && in >> field; ++f) {
            }
            c.acts += std::strtoull(field.c_str(), nullptr, 10);
        }
    }

    FuzzResult
    inProcess(std::uint64_t seed) const
    {
        return fuzzCampaign(spec, cfg, params, seed);
    }

    void
    expectHealthy(const Call &c, std::uint64_t index) const
    {
        checks.expect(c.report.code == FailureCode::None
                          && c.report.supervisor.complete()
                          && c.report.supervisor.quarantined == 0
                          && c.restored == params.numPatterns && c.acts > 0
                          && c.result.ok(),
                      strFormat("service call %llu: degraded (%u "
                                "quarantined, %zu of %u records)",
                                static_cast<unsigned long long>(index),
                                c.report.supervisor.quarantined, c.restored,
                                params.numPatterns));
    }

    void
    expectSame(const Call &c, const FuzzResult &inproc,
               std::uint64_t index) const
    {
        checks.expect(sameFuzz(c.result, inproc),
                      strFormat("service call %llu: merged result differs "
                                "from the in-process campaign",
                                static_cast<unsigned long long>(index)));
    }

    void runTimed(EndToEnd &e2e) const;
    void runTraced(Layers &layers) const;

  private:
    void traceTask(std::uint64_t seed, unsigned i,
                   std::vector<Access> &buffer, Layers &layers) const;
    void journalLayers(const Call &c, Layers &layers, double &open_s,
                       double &record_s) const;
    double shardedCompute(std::uint64_t seed) const;

    const Options &opt;
    SystemSpec spec;
    HammerConfig cfg;
    FuzzParams params;
    service::ServiceParams svc;
    Checks &checks;
};

void
ServiceWorkload::runTimed(EndToEnd &e2e) const
{
    // Set-up: the call's directory and one discarded warm-up call, from
    // a fixed seed.
    auto setUp = [&] {
        Call warm = supervised(setupIndex, callSeed(0x5e7u, 0));
        readJournal(warm);
        e2e.setupActs = warm.acts;
        clean(setupIndex);
    };
    std::vector<Call> calls;
    runWindow(opt.seconds, e2e, setUp, [&] {
        std::uint64_t index = calls.size();
        Call c = supervised(index, callSeed(opt.seed, index));
        readJournal(c);
        clean(index);
        e2e.add(c.seconds, params.numPatterns, c.acts);
        calls.push_back(std::move(c));
    });
    e2e.work = strFormat("{\"tasks_per_call\": %u, \"locations\": %u, "
                         "\"budget\": %llu, \"workers\": %u, "
                         "\"shards\": %u}",
                         params.numPatterns, params.locationsPerPattern,
                         static_cast<unsigned long long>(cfg.accessBudget),
                         svc.supervisor.workers, svc.shards);

    // Checks, outside the window: every call complete with nothing
    // quarantined, and sampled calls byte-equal to the in-process
    // campaign with the same seed.
    for (std::size_t i = 0; i < calls.size(); ++i)
        expectHealthy(calls[i], i);
    const unsigned samples = 4;
    for (unsigned k = 0; k < samples; ++k) {
        std::uint64_t i =
            hashCombine(hashCombine(opt.seed, 0x5a4), k) % calls.size();
        expectSame(calls[i], inProcess(calls[i].seed), i);
    }
    checks.note(strFormat("service: %zu supervised calls of %u tasks, %u "
                          "compared with the in-process campaign",
                          calls.size(), params.numPatterns, samples));
}

/**
 * The journal layer from outside: open the merged journal a call left
 * behind (the recovery scan), then record its entries into a fresh
 * journal.
 */
void
ServiceWorkload::journalLayers(const Call &c, Layers &layers, double &open_s,
                               double &record_s) const
{
    JournalOptions jo;
    jo.fsync = FsyncPolicy::Never;
    std::uint64_t key = journalKey(c.seed);
    std::unique_ptr<TaskJournal> merged;
    open_s = timed([&] {
        merged = std::make_unique<TaskJournal>(c.report.mergedJournalPath,
                                               key, FuzzJournalKind, jo);
    });
    checks.expect(merged->restoredCount() == params.numPatterns,
                  "merged journal is incomplete");
    std::map<unsigned, std::string> ordered(merged->entries().begin(),
                                            merged->entries().end());
    std::string copy = c.report.mergedJournalPath + ".copy";
    TaskJournal fresh(copy, key, FuzzJournalKind, jo);
    record_s = timed([&] {
        for (const auto &[index, payload] : ordered)
            fresh.record(index, payload);
    });
    layers.journalRecordS += record_s;
    layers.journalRecords += ordered.size();
}

/**
 * The workers' compute of one call as the supervisor schedules it: the
 * same shards, each run in process with one job, on as many threads as
 * there are workers, each thread taking the next shard when it frees.
 * Unlike the in-process twin, this keeps the load imbalance of the
 * static shards.
 */
double
ServiceWorkload::shardedCompute(std::uint64_t seed) const
{
    std::vector<service::ShardSpec> shards =
        service::makeShards(params.numPatterns, svc.shards, "");
    return timed([&] {
        parallelMapOrdered(
            static_cast<unsigned>(shards.size()), svc.supervisor.workers,
            [&](unsigned k) {
                std::vector<std::uint8_t> mask =
                    shards[k].mask(params.numPatterns);
                FuzzParams one = params;
                one.jobs = 1;
                one.taskMask = &mask;
                return fuzzCampaign(spec, cfg, one, seed).totalFlips;
            });
    });
}

/**
 * One fuzz task re-executed from outside with the DRAM stream recorded,
 * checked against the program's own masked campaign call of that task.
 * Only its layer times and counters are kept: the supervised calls are
 * the reconciled units.
 */
void
ServiceWorkload::traceTask(std::uint64_t seed, unsigned i,
                           std::vector<Access> &buffer, Layers &layers) const
{
    std::vector<std::uint8_t> mask(params.numPatterns, 0);
    mask[i] = 1;
    FuzzParams one = params;
    one.jobs = 1;
    one.taskMask = &mask;
    MetricsRegistry own;
    fuzzCampaign(spec, cfg, one, seed, nullptr, &own);

    std::uint64_t task_seed = hashCombine(seed, i);
    Clock::time_point t0 = Clock::now();
    auto sys = std::make_unique<RecordingSystem>(spec.instantiate(task_seed),
                                                 std::move(buffer));
    layers.instantiateS += secondsSince(t0);
    ++layers.instantiates;
    Rng prng(task_seed);
    HammerPattern pattern =
        HammerPattern::randomNonUniform(prng, params.patternParams);
    HammerSession session(*sys, task_seed);
    LocationPick pick = session.tryRandomLocation(pattern, cfg);
    std::uint64_t flips = 0;
    if (pick.ok())
        flips = replicaHammer(session, pattern, *pick.loc, cfg, layers).flips;

    SystemSpec off = spec;
    off.rfm.enabled = false;
    off.prac.enabled = false;
    const std::vector<Access> &s = sys->stream();
    PairedReplay r = replayPaired(spec, off, s);
    addReplay(layers, r, s.size());
    layers.cpuDramReplayS += r.onS;
    layers.mitOnS += r.onS;
    layers.mitOffS += r.offS;
    layers.mitActs += r.acts;

    std::string what = strFormat("service task %u", i);
    checks.expect(r.mismatches == 0,
                  strFormat("%s: %llu replayed latencies differ",
                            what.c_str(),
                            static_cast<unsigned long long>(r.mismatches)));
    std::uint64_t acts = sys->dimm().totalActs();
    checks.expect(acts == own.value("dram.acts") && r.acts == acts
                      && flips == own.value("hammer.flips"),
                  what + ": ACTs or flips differ between program, replica "
                         "and replay");
    buffer = sys->releaseBuffer();
}

void
ServiceWorkload::runTraced(Layers &layers) const
{
    const unsigned pairs = opt.tiny ? 2 : 6;
    std::vector<double> ratios, supervise_ms, merge_ms, open_ms;
    for (unsigned i = 0; i < pairs; ++i) {
        std::uint64_t seed = callSeed(opt.seed, i);
        // The supervised call and its in-process twin, in alternating
        // order.
        Call c;
        FuzzResult inproc;
        ParallelStats stats;
        double inproc_s = 0.0;
        auto runInproc = [&] {
            inproc_s = timed([&] {
                inproc = fuzzCampaign(spec, cfg, params, seed, &stats);
            });
        };
        if (i % 2 == 0) {
            c = supervised(i, seed);
            runInproc();
        } else {
            runInproc();
            c = supervised(i, seed);
        }
        readJournal(c);
        expectHealthy(c, i);
        expectSame(c, inproc, i);
        ratios.push_back(c.seconds / inproc_s);
        layers.tasksReexecuted += c.report.tasksReexecuted;
        layers.poolBusyMs += stats.taskWallMs.sum();
        layers.poolCapacityMs += stats.jobs * stats.wallNs / 1e6;

        double open_s = 0.0, record_s = 0.0;
        journalLayers(c, layers, open_s, record_s);
        open_ms.push_back(open_s * 1e3);

        // The merge: the in-process replay over the merged journal, in
        // which every task restores.
        FuzzParams replay = params;
        replay.checkpointPath = c.report.mergedJournalPath;
        replay.journal.fsync = FsyncPolicy::Never;
        FuzzResult merged_result;
        double merge_s = timed([&] {
            merged_result = fuzzCampaign(spec, cfg, replay, seed);
        });
        merge_ms.push_back(merge_s * 1e3);
        checks.expect(sameFuzz(merged_result, inproc),
                      "merge replay differs from the in-process campaign");

        // Supervision alone: the same shard set, workers that exit at
        // once.
        service::ServiceParams call = serviceFor(i);
        auto shards = service::makeShards(params.numPatterns, call.shards,
                                          call.journalBase + ".idle");
        double supervise_s = timed([&] {
            service::Supervisor(call.supervisor)
                .run(shards, [](const service::ShardSpec &, unsigned,
                                const service::WorkerChaos &) { return 0; });
        });
        supervise_ms.push_back(supervise_s * 1e3);
        clean(i);

        // Layers of one supervised call: its workers' compute as the
        // supervisor schedules the shards, supervision and the merge
        // replay.
        double compute_s = shardedCompute(seed);
        layers.addUnit(c.seconds,
                       c.seconds + open_s + record_s + merge_s + supervise_s,
                       compute_s + supervise_s + merge_s);
    }
    layers.serviceOverheadRatio = median(ratios);
    layers.serviceSuperviseMs = median(supervise_ms);
    layers.serviceMergeMs = median(merge_ms);
    layers.journalOpenMs = median(open_ms);

    // Per-task layers: sampled tasks of the first call, re-executed
    // from outside.
    std::vector<Access> buffer = recordingBuffer(cfg.accessBudget * 2);
    const unsigned tasks = opt.tiny ? 2 : 8;
    std::uint64_t seed = callSeed(opt.seed, 0);
    for (unsigned k = 0; k < tasks; ++k) {
        auto i = static_cast<unsigned>(hashCombine(seed, 0x7a5 + k)
                                       % params.numPatterns);
        traceTask(seed, i, buffer, layers);
    }
    checks.note(strFormat("service trace: %u supervised calls paired with "
                          "in-process twins, %u sampled tasks",
                          pairs, tasks));
}

} // namespace

void
runService(const Options &opt, EndToEnd &e2e, Layers &layers,
           Checks &checks)
{
    ServiceWorkload w(opt, checks);
    if (opt.trace)
        w.runTraced(layers);
    else
        w.runTimed(e2e);
}

} // namespace rhobench
