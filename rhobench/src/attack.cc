/**
 * @file
 * Workload `attack`: the paper's full attack as a cloud tenant would run
 * it, on Raptor Lake. An attack round is one RhoReverseEngineer::run on
 * a fresh S1 machine and a pair of cross-VM trials on S4 (interleaved
 * placement, two 16 MiB tenants, 32 hammer sites, takeover attempted),
 * one with on-die ECC off and one with it on. Two attack rounds run side
 * by side on 2 threads. A task is one recovery or one trial. A trial is
 * exactly one crossVmCampaign task, run through the same public calls
 * so its machine's ACTs can be counted.
 *
 * Why: it is the only workload that runs revng, TimingProbe, the
 * non-memoized MemorySystem::dramAccess decode, os (buddy, VM carve,
 * stage-2), exploit (templating, escalation) and the ECC read path. Its
 * revng half never enters SimCpu, so it is the control for CPU-side
 * work.
 */

#include <memory>
#include <set>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "exploit/cross_vm.hh"
#include "hammer/tuned_configs.hh"
#include "harness.hh"
#include "memsys/timing_probe.hh"
#include "os/buddy_allocator.hh"
#include "os/pagemap.hh"
#include "os/vm.hh"
#include "revng/reverse_engineer.hh"
#include "trace/tracer.hh"

namespace rhobench
{

using namespace rho;

namespace
{

constexpr Arch attackArch = Arch::RaptorLake;

// Timed reads land here so they cannot be elided.
volatile std::uint64_t readSink;

const DimmProfile &
recoveryDimm()
{
    return DimmProfile::byId("S1");
}

/**
 * The reverse-engineering memory pool. Recovery only reads it, so one
 * pool, built in set-up from a fixed seed, serves every recovery.
 */
struct Pool
{
    std::unique_ptr<BuddyAllocator> buddy;
    std::unique_ptr<PhysPool> pool;

    Pool()
    {
        MemorySystem sized(attackArch, recoveryDimm());
        buddy = std::make_unique<BuddyAllocator>(sized.mapping().memBytes(),
                                                 0.02, 0x9001);
        pool = std::make_unique<PhysPool>(*buddy, 0.70);
    }
};

/** One recovery's fresh machine; `sys` may be a RecordingSystem. */
struct Machine
{
    std::unique_ptr<MemorySystem> sys;
    std::unique_ptr<TimingProbe> probe;

    Machine(std::uint64_t seed, bool record, std::vector<Access> buffer = {})
    {
        MemorySystem base(attackArch, recoveryDimm(), TrrConfig{}, seed);
        if (record)
            sys = std::make_unique<RecordingSystem>(std::move(base),
                                                    std::move(buffer));
        else
            sys = std::make_unique<MemorySystem>(std::move(base));
        probe = std::make_unique<TimingProbe>(*sys, seed);
    }
};

/** A cross-VM trial's machine, built the way crossVmCampaign builds it. */
struct Rig
{
    std::unique_ptr<MemorySystem> sys;
    std::unique_ptr<BuddyAllocator> buddy;
    std::unique_ptr<VmManager> vmm;
    std::unique_ptr<HammerSession> session;
    bool carved = false;
    double instantiateS = 0.0;
    double osSetupS = 0.0;

    Rig(const SystemSpec &spec, const CrossVmParams &params,
        std::uint64_t task_seed)
    {
        Clock::time_point t0 = Clock::now();
        sys = std::make_unique<MemorySystem>(spec.instantiate(task_seed));
        instantiateS = secondsSince(t0);
        t0 = Clock::now();
        buddy = std::make_unique<BuddyAllocator>(sys->mapping().memBytes(),
                                                 0.02, task_seed);
        vmm = std::make_unique<VmManager>(*sys, *buddy, params.vmCfg);
        carved = vmm->createTenants(params.tenants, params.bytesPerTenant);
        osSetupS = secondsSince(t0);
        session = std::make_unique<HammerSession>(*sys, task_seed);
    }

    CrossVmResult
    attack(const CrossVmParams &params, std::uint64_t task_seed)
    {
        if (!carved) {
            CrossVmResult r;
            r.code = FailureCode::AllocationFailed;
            return r;
        }
        return crossVmAttack(*session, *vmm, params, task_seed);
    }
};

SystemSpec
trialSpec(bool ecc)
{
    SystemSpec spec(attackArch, DimmProfile::byId("S4"));
    spec.ecc.enabled = ecc;
    return spec;
}

bool
sameTrial(const CrossVmResult &a, const CrossVmResult &b)
{
    if (a.crossFlips.size() != b.crossFlips.size())
        return false;
    for (std::size_t i = 0; i < a.crossFlips.size(); ++i) {
        const CrossVmFlipInfo &x = a.crossFlips[i], &y = b.crossFlips[i];
        if (x.hpa != y.hpa || x.bank != y.bank || x.row != y.row
            || x.bitOffset != y.bitOffset || x.toOne != y.toOne
            || x.owner != y.owner || x.loc.bank != y.loc.bank
            || x.loc.baseRow != y.loc.baseRow || x.visible != y.visible)
            return false;
    }
    return a.totalFlips == b.totalFlips
           && a.crossVmFlipsRaw == b.crossVmFlipsRaw
           && a.crossVmFlipsVisible == b.crossVmFlipsVisible
           && a.takeover == b.takeover && a.success == b.success
           && a.code == b.code && sameBits(a.simTimeNs, b.simTimeNs);
}

/** The raw flips of two twins: the same device truth. */
bool
sameRawFlips(const CrossVmResult &a, const CrossVmResult &b)
{
    if (a.crossFlips.size() != b.crossFlips.size())
        return false;
    for (std::size_t i = 0; i < a.crossFlips.size(); ++i) {
        const CrossVmFlipInfo &x = a.crossFlips[i], &y = b.crossFlips[i];
        if (x.hpa != y.hpa || x.bitOffset != y.bitOffset
            || x.toOne != y.toOne)
            return false;
    }
    return a.crossVmFlipsRaw == b.crossVmFlipsRaw
           && a.totalFlips == b.totalFlips;
}

/** One round's seeds: a recovery and a pair of trials. */
struct RoundSeeds
{
    std::uint64_t recovery;
    std::uint64_t campaign; //!< crossVmCampaign seed of both trials
};

RoundSeeds
roundSeeds(std::uint64_t seed, std::uint64_t round)
{
    std::uint64_t base = hashCombine(hashCombine(seed, 0xa77a), round);
    return {hashCombine(base, 1), hashCombine(base, 2)};
}

/** A round's outcome, kept for the checks. */
struct Round
{
    RoundSeeds seeds;
    MappingRecovery recovery;
    CrossVmResult off, on;
};

class AttackWorkload
{
  public:
    AttackWorkload(const Options &opt_, Checks &checks_)
        : opt(opt_), checks(checks_)
    {
    }

    ReverseEngineerConfig
    reConfig() const
    {
        ReverseEngineerConfig cfg;
        if (opt.tiny)
            cfg.thresholdPairs = 200;
        return cfg;
    }

    CrossVmParams
    trialParams(bool takeover) const
    {
        CrossVmParams p;
        p.hammerCfg = rhoConfig(attackArch, false, opt.tiny ? 20000 : 120000);
        p.vmCfg = VmConfig{VmPlacement::Interleaved, false};
        p.bytesPerTenant = 16ull << 20;
        p.hammerRuns = opt.tiny ? 4 : 32;
        p.attemptTakeover = takeover;
        return p;
    }

    /** One recovery on machine `m`. */
    MappingRecovery
    recover(Machine &m, std::uint64_t seed) const
    {
        return RhoReverseEngineer(*m.probe, *pool->pool, seed, reConfig())
            .run();
    }

    /** A recovery must succeed and match the machine's true mapping. */
    void
    checkRecovery(const MappingRecovery &rec, std::uint64_t seed) const
    {
        static const MemorySystem truth(attackArch, recoveryDimm());
        checks.expect(rec.success && rec.matches(truth.mapping()),
                      strFormat("recovery seed %llu: recovered mapping does "
                                "not match (success=%d, %s)",
                                static_cast<unsigned long long>(seed),
                                rec.success ? 1 : 0,
                                rec.failureReason.c_str()));
    }

    /** A timed recovery task: a fresh machine and one recovery on it. */
    double
    recoveryTask(std::uint64_t seed, MappingRecovery &rec,
                 std::uint64_t &acts) const
    {
        return timed([&] {
            Machine m(seed, false);
            rec = recover(m, seed);
            acts = m.sys->dimm().totalActs();
        });
    }

    /**
     * A timed trial task: crossVmCampaign's task 0 for `campaign_seed`,
     * on its own machine.
     */
    double
    trialTask(const SystemSpec &spec, std::uint64_t campaign_seed,
              CrossVmResult &res, std::uint64_t &acts) const
    {
        CrossVmParams params = trialParams(true);
        std::uint64_t task_seed = hashCombine(campaign_seed, 0);
        return timed([&] {
            Rig rig(spec, params, task_seed);
            res = rig.attack(params, task_seed);
            acts = rig.sys->dimm().totalActs();
        });
    }

    void
    buildPool()
    {
        pool.reset();
        pool = std::make_unique<Pool>();
    }

    /** ECC on and off share device truth; ECC only hides flips. */
    void
    checkTwins(const Round &r) const
    {
        checks.expect(sameRawFlips(r.off, r.on)
                          && r.on.crossVmFlipsVisible
                                 <= r.on.crossVmFlipsRaw
                          && r.off.crossVmFlipsVisible
                                 <= r.off.crossVmFlipsRaw,
                      strFormat("trial %016llx: ECC-on raw flips differ "
                                "from the ECC-off twin",
                                static_cast<unsigned long long>(
                                    r.seeds.campaign)));
    }

    /**
     * Re-run a trial on the Reference row store and CPU engine, and as
     * crossVmCampaign itself: both must match the timed trial.
     */
    void
    checkTrial(std::uint64_t campaign_seed, bool ecc,
               const CrossVmResult &timed_res) const
    {
        SystemSpec ref = trialSpec(ecc);
        ref.referenceRowStore = true;
        ref.cpuModel = CpuModelKind::Reference;
        CrossVmResult r;
        std::uint64_t acts = 0;
        trialTask(ref, campaign_seed, r, acts);

        CrossVmCampaignParams cp;
        cp.attack = trialParams(true);
        cp.trials = 1;
        cp.jobs = 1;
        CrossVmCampaignResult c =
            crossVmCampaign(trialSpec(ecc), cp, campaign_seed);
        bool campaign_same =
            c.trials == 1 && c.totalFlips == timed_res.totalFlips
            && c.crossVmFlipsRaw == timed_res.crossVmFlipsRaw
            && c.crossVmFlipsVisible == timed_res.crossVmFlipsVisible
            && c.takeovers == (timed_res.takeover ? 1u : 0u)
            && c.codes.size() == 1 && c.codes[0] == timed_res.code
            && sameBits(c.simTimeNs, timed_res.simTimeNs);
        checks.expect(sameTrial(r, timed_res) && campaign_same,
                      strFormat("trial %016llx (ECC %s) differs on the "
                                "Reference stack or from crossVmCampaign",
                                static_cast<unsigned long long>(
                                    campaign_seed),
                                ecc ? "on" : "off"));
    }

    void runTimed(EndToEnd &e2e);
    void runTraced(Layers &layers);

  private:
    void traceRecovery(std::uint64_t seed, bool untraced_first,
                       Layers &layers, double &untraced_s, double &traced_s);
    void traceTrials(const RoundSeeds &seeds, Layers &layers,
                     std::vector<double> &os_ms, std::vector<double> &templ_ms,
                     std::vector<double> &esc_ms, double &untraced_s);

    const Options &opt;
    Checks &checks;
    std::unique_ptr<Pool> pool;
};

void
AttackWorkload::runTimed(EndToEnd &e2e)
{
    // Set-up: the recovery pool, a VM carve on an S4 machine and one
    // discarded warm-up recovery, all from fixed seeds.
    auto setUp = [&] {
        buildPool();
        Rig carve(trialSpec(false), trialParams(true), 0x5e7u);
        MappingRecovery rec;
        recoveryTask(hashCombine(0x5e7u, 1), rec, e2e.setupActs);
    };
    SystemSpec off = trialSpec(false), on = trialSpec(true);
    std::vector<Round> rounds;
    // A window round is benchJobs attack rounds run side by side: their
    // trials first, then their recoveries, so both workers stay busy to
    // the end of the round.
    runWindow(opt.seconds, e2e, setUp, [&] {
        const std::size_t first = rounds.size();
        for (unsigned k = 0; k < benchJobs; ++k)
            rounds.push_back(
                Round{roundSeeds(opt.seed, first + k), {}, {}, {}});
        std::vector<std::uint64_t> acts(3 * benchJobs, 0);
        double secs = timed([&] {
            parallelMapOrdered(3 * benchJobs, benchJobs, [&](unsigned i) {
                if (i < 2 * benchJobs) {
                    Round &r = rounds[first + i / 2];
                    bool ecc = i % 2;
                    trialTask(ecc ? on : off, r.seeds.campaign,
                              ecc ? r.on : r.off, acts[i]);
                } else {
                    Round &r = rounds[first + i - 2 * benchJobs];
                    recoveryTask(r.seeds.recovery, r.recovery, acts[i]);
                }
                return 0;
            });
        });
        std::uint64_t total = 0;
        for (std::uint64_t a : acts)
            total += a;
        e2e.add(secs, acts.size(), total);
    });
    CrossVmParams p = trialParams(true);
    e2e.work = strFormat("{\"recoveries_per_round\": %u, "
                         "\"trials_per_round\": %u, \"jobs\": %u, "
                         "\"threshold_pairs\": %u, \"budget\": %llu, "
                         "\"hammer_sites\": %u, \"tenant_mib\": %llu}",
                         benchJobs, 2 * benchJobs, benchJobs,
                         reConfig().thresholdPairs,
                         static_cast<unsigned long long>(
                             p.hammerCfg.accessBudget),
                         p.hammerRuns,
                         static_cast<unsigned long long>(
                             p.bytesPerTenant >> 20));

    // Checks, outside the window: every recovery, the ECC twins, and one
    // sampled trial re-run.
    for (const Round &r : rounds) {
        checkRecovery(r.recovery, r.seeds.recovery);
        checkTwins(r);
    }
    std::uint64_t pick = hashCombine(opt.seed, 0x5a5);
    const Round &sample = rounds[pick % rounds.size()];
    bool ecc = (pick >> 32) & 1;
    checkTrial(sample.seeds.campaign, ecc, ecc ? sample.on : sample.off);
    checks.note(strFormat("attack: %zu attack rounds of 1 recovery + 2 "
                          "trials, 1 trial checked on the Reference stack",
                          rounds.size()));
}

/**
 * One recovery, untraced and traced (recorded), in the given order; the
 * recorded stream is then replayed through MemorySystem, Dimm and the
 * mapping.
 */
void
AttackWorkload::traceRecovery(std::uint64_t seed, bool untraced_first,
                              Layers &layers, double &untraced_s,
                              double &traced_s)
{
    MappingRecovery own, traced;
    std::uint64_t own_acts = 0;
    std::unique_ptr<Machine> rec;
    double run_s = 0.0;
    auto untracedRun = [&] {
        untraced_s = timed([&] {
            Machine m(seed, false);
            own = recover(m, seed);
            checkRecovery(own, seed);
            own_acts = m.sys->dimm().totalActs();
        });
    };
    auto tracedRun = [&] {
        std::vector<Access> buffer = recordingBuffer(1 << 20);
        traced_s = timed([&] {
            Clock::time_point t0 = Clock::now();
            rec = std::make_unique<Machine>(seed, true, std::move(buffer));
            layers.instantiateS += secondsSince(t0);
            ++layers.instantiates;
            run_s = timed([&] { traced = recover(*rec, seed); });
        });
    };
    if (untraced_first) {
        untracedRun();
        tracedRun();
    } else {
        tracedRun();
        untracedRun();
    }
    checks.expect(own.timedAccesses == traced.timedAccesses
                      && sameBits(own.simTimeNs, traced.simTimeNs),
                  "traced recovery differs from the untraced one");

    // Probe cost, batch-timed on a fresh machine, and the revng residual.
    const unsigned pairs = opt.tiny ? 50 : 2000;
    const unsigned rounds = reConfig().roundsPerPair;
    Machine probe_machine(seed, false);
    Rng rng(hashCombine(seed, 0x9b0e));
    std::vector<std::pair<PhysAddr, PhysAddr>> addrs;
    for (unsigned p = 0; p < pairs; ++p)
        addrs.push_back({pool->pool->randomAddr(rng),
                         pool->pool->randomAddr(rng)});
    double pair_s = timed([&] {
        for (auto [a, b] : addrs)
            probe_machine.probe->measurePair(a, b, rounds);
    }) / pairs;
    layers.probeUsPerPair += pair_s * 1e6;
    double probe_share_s = pair_s / (2.0 * rounds)
                           * static_cast<double>(traced.timedAccesses);
    layers.revngSelfMs += (run_s - probe_share_s) * 1e3;

    // Replays of the recorded stream.
    const std::vector<Access> &s =
        static_cast<RecordingSystem &>(*rec->sys).stream();
    MemorySystem fresh(attackArch, recoveryDimm(), TrrConfig{}, seed);
    Replay m = replayMemsys(fresh, s);
    layers.memsysReplayS += m.seconds;
    layers.memsysAccesses += s.size();
    std::vector<double> decode;
    for (int rep = 0; rep < 3; ++rep)
        decode.push_back(decodeNsPerAccess(fresh.mapping(), s));
    layers.decodeNs += median(decode);

    SystemSpec spec(attackArch, recoveryDimm());
    SystemSpec no_trr = spec;
    no_trr.trr.enabled = false;
    PairedReplay r = replayPaired(spec, no_trr, s);
    addReplay(layers, r, s.size());
    checks.expect(m.mismatches == 0 && r.mismatches == 0,
                  strFormat("recovery: %llu replayed latencies differ",
                            static_cast<unsigned long long>(m.mismatches
                                                            + r.mismatches)));
    std::uint64_t acts = rec->sys->dimm().totalActs();
    checks.expect(acts == own_acts && r.acts == acts
                      && m.acts == acts,
                  "recovery: ACT counts differ between runs and replays");
}

/**
 * A round's two trials: each run as the program runs it (takeover
 * attempted) and again with attemptTakeover = false, in alternating
 * order. The ECC read path, stage-2 translation and the ECC correction
 * count are measured on the untraced twins afterwards.
 */
void
AttackWorkload::traceTrials(const RoundSeeds &seeds, Layers &layers,
                            std::vector<double> &os_ms,
                            std::vector<double> &templ_ms,
                            std::vector<double> &esc_ms, double &untraced_s)
{
    std::uint64_t task_seed = hashCombine(seeds.campaign, 0);
    CrossVmParams full = trialParams(true), templ_only = trialParams(false);
    std::unique_ptr<Rig> rigs[2];
    CrossVmResult results[2];
    for (int ecc = 0; ecc < 2; ++ecc) {
        SystemSpec spec = trialSpec(ecc);
        double run_s = 0.0, templ_s = 0.0;
        auto fullRun = [&] {
            untraced_s += timed([&] {
                rigs[ecc] = std::make_unique<Rig>(spec, full, task_seed);
                run_s = timed([&] {
                    results[ecc] = rigs[ecc]->attack(full, task_seed);
                });
            });
        };
        auto templRun = [&] {
            Rig rig(spec, templ_only, task_seed);
            templ_s = timed([&] { rig.attack(templ_only, task_seed); });
        };
        if (ecc == 0) {
            fullRun();
            templRun();
        } else {
            templRun();
            fullRun();
        }
        Rig &rig = *rigs[ecc];
        layers.instantiateS += rig.instantiateS;
        ++layers.instantiates;
        os_ms.push_back(rig.osSetupS * 1e3);
        templ_ms.push_back(templ_s * 1e3);
        esc_ms.push_back((run_s - templ_s) * 1e3);
        layers.takeovers += results[ecc].takeover ? 1 : 0;
        layers.crossFlipsRaw += results[ecc].crossVmFlipsRaw;
    }
    Round r{seeds, {}, results[0], results[1]};
    checkTwins(r);

    // The ECC read path: functional reads of every page holding a
    // cross-VM flip (the victim's first pages when there is none), the
    // same bytes on both twins (same device truth), on minus off.
    std::set<PhysAddr> pages;
    for (const CrossVmFlipInfo &f : results[1].crossFlips)
        pages.insert(f.hpa / pageBytes * pageBytes);
    const std::vector<PhysAddr> &frames =
        rigs[0]->vmm->framesOf(full.victimVm);
    for (std::size_t f = 0; pages.size() < 4 && f < frames.size(); ++f)
        pages.insert(frames[f]);
    std::uint64_t sink = 0;
    double read_s[2] = {0.0, 0.0};
    const int passes = 4;
    for (int rep = 0; rep < passes; ++rep) {
        for (int ecc : {rep % 2, 1 - rep % 2}) {
            MemorySystem &sys = *rigs[ecc]->sys;
            read_s[ecc] += timed([&] {
                for (PhysAddr page : pages) {
                    for (std::uint64_t b = 0; b < pageBytes; ++b)
                        sink += sys.readByte(page + b);
                }
            });
        }
    }
    layers.eccReadOffS += read_s[0];
    layers.eccReadOnS += read_s[1];
    layers.eccBytes += passes * pages.size() * pageBytes;

    // Corrections: one traced read of every cross-VM flipped byte.
    TraceConfig tc;
    tc.enabled = true;
    tc.categories = CatFlip;
    Tracer tracer(tc);
    MemorySystem &on_sys = *rigs[1]->sys;
    on_sys.attachTracer(&tracer);
    for (const CrossVmFlipInfo &f : results[1].crossFlips)
        sink += on_sys.readByte(f.hpa);
    on_sys.attachTracer(nullptr);
    for (const TraceEvent &e : tracer.events())
        layers.eccCorrections += e.kind == EventKind::EccCorrected;

    // Stage-2 translation, batch-timed over the victim's guest lines.
    VmManager &vmm = *rigs[0]->vmm;
    std::uint64_t gpa_bytes = vmm.gpaBytes(full.victimVm);
    std::uint64_t calls = 0;
    double s2_s = timed([&] {
        for (std::uint64_t gpa = 0; gpa < gpa_bytes; gpa += 256) {
            if (auto hpa = vmm.gpaToHpa(full.victimVm, gpa))
                sink += *hpa;
            ++calls;
        }
    });
    layers.stage2Ns += s2_s * 1e9 / static_cast<double>(calls);
    readSink = sink;
}

void
AttackWorkload::runTraced(Layers &layers)
{
    double pool_s = timed([&] { buildPool(); });
    const unsigned rounds = opt.tiny ? 1 : 2;
    std::vector<double> os_ms, templ_ms, esc_ms;
    for (unsigned i = 0; i < rounds; ++i) {
        RoundSeeds seeds = roundSeeds(opt.seed, i);
        double rec_untraced = 0.0, rec_traced = 0.0, trials_s = 0.0;
        traceRecovery(seeds.recovery, i % 2 == 0, layers, rec_untraced,
                      rec_traced);
        traceTrials(seeds, layers, os_ms, templ_ms, esc_ms, trials_s);
        // A round: the recovery's layers are its traced run (instantiate
        // + probe share + revng residual); a trial's are instantiate, os
        // set-up, templating and escalation, which add up to its wall.
        layers.addUnit(rec_untraced + trials_s, rec_traced + trials_s,
                       rec_traced + trials_s);
    }
    layers.probeUsPerPair /= rounds;
    layers.revngSelfMs /= rounds;
    layers.decodeNs /= rounds;
    layers.stage2Ns /= rounds;
    layers.osSetupMs = pool_s * 1e3 + median(os_ms);
    layers.templatingMs = median(templ_ms);
    layers.escalationMs = median(esc_ms);
    checks.note(strFormat("attack trace: %u rounds (recovery + ECC off/on "
                          "trials, each also run without takeover)",
                          rounds));
}

} // namespace

void
runAttack(const Options &opt, EndToEnd &e2e, Layers &layers, Checks &checks)
{
    AttackWorkload w(opt, checks);
    if (opt.trace)
        w.runTraced(layers);
    else
        w.runTimed(e2e);
}

} // namespace rhobench
