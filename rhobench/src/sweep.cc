/**
 * @file
 * Workload `sweep`: fig11-shaped, in process, no journal. Each round
 * draws one non-uniform pattern per architecture from the seed and runs
 * a rho sweep and a baseline sweep of it on Comet Lake and on Raptor
 * Lake (DIMM S4, TRR on, 380k-access budget, 8 locations, 2 jobs). A
 * task is one sweep location.
 *
 * Why: this is the simulator's hot path. Raptor Lake is bound by CPU
 * replay and Comet Lake by Dimm::access and TRR; the non-uniform
 * pattern flips on S4 where double-sided does not, so the flip path
 * runs too. Journal, service and revng work is almost absent.
 */

#include <memory>

#include "common/rng.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "harness.hh"

namespace rhobench
{

using namespace rho;

namespace
{

constexpr Arch sweepArchs[] = {Arch::CometLake, Arch::RaptorLake};

const DimmProfile &
sweepDimm()
{
    return DimmProfile::byId("S4");
}

/** One sweepCampaign call of a round, with everything to re-run it. */
struct Call
{
    Arch arch;
    bool rho;
    HammerPattern pattern;
    std::uint64_t seed;
    HammerConfig cfg;

    Call(Arch arch_, bool rho_, const HammerPattern &pattern_,
         std::uint64_t seed_, const HammerConfig &cfg_)
        : arch(arch_), rho(rho_), pattern(pattern_), seed(seed_), cfg(cfg_)
    {
    }

    // Outcome.
    double seconds = 0.0;
    std::uint64_t acts = 0;
    ParallelStats stats;
    SweepResult result;

    std::string
    name() const
    {
        return archName(arch) + (rho ? " rho" : " baseline");
    }
};

class SweepWorkload
{
  public:
    SweepWorkload(const Options &opt_, Checks &checks_)
        : opt(opt_), budget(opt_.tiny ? 20000 : 380000),
          locations(opt_.tiny ? 2 : 8), checks(checks_)
    {
    }

    /** The four calls of round `round`; the seed picks the patterns. */
    std::vector<Call>
    roundCalls(std::uint64_t seed, std::uint64_t round) const
    {
        std::uint64_t base = hashCombine(hashCombine(seed, 0x5eeb), round);
        std::vector<Call> calls;
        for (unsigned a = 0; a < 2; ++a) {
            Arch arch = sweepArchs[a];
            Rng rng(hashCombine(base, a));
            HammerPattern pattern = HammerPattern::randomNonUniform(rng);
            std::uint64_t sweep_seed = hashCombine(base, 2 + a);
            calls.push_back(Call{arch, true, pattern, sweep_seed,
                                 rhoConfig(arch, true, budget)});
            calls.push_back(Call{arch, false, pattern, sweep_seed,
                                 baselineConfig(arch, false, budget)});
        }
        return calls;
    }

    SweepParams
    params(unsigned jobs) const
    {
        SweepParams sp;
        sp.numLocations = locations;
        sp.jobs = jobs;
        return sp;
    }

    /** Run one call with the benchmark's jobs, timed. */
    void
    run(Call &call) const
    {
        SystemSpec spec(call.arch, sweepDimm());
        MetricsRegistry metrics;
        call.seconds = timed([&] {
            call.result = sweepCampaign(spec, call.pattern, call.cfg,
                                        params(benchJobs), call.seed,
                                        &call.stats, &metrics);
        });
        call.acts = metrics.value("dram.acts");
    }

    /** Location i of a call, run alone (masked) on `spec`, one job. */
    SweepResult
    runLocation(const SystemSpec &spec, const Call &call, unsigned i,
                MetricsRegistry *metrics) const
    {
        std::vector<std::uint8_t> mask(locations, 0);
        mask[i] = 1;
        SweepParams sp = params(1);
        sp.taskMask = &mask;
        return sweepCampaign(spec, call.pattern, call.cfg, sp, call.seed,
                             nullptr, metrics);
    }

    /** Does a one-location result equal location i of the call? */
    bool
    sameLocation(const SweepResult &r, const Call &call, unsigned i) const
    {
        const SweepResult &t = call.result;
        std::size_t first = 0;
        for (unsigned k = 0; k < i; ++k)
            first += t.flipsPerLocation[k];
        std::vector<FlipRecord> expect(
            t.flipList.begin() + first,
            t.flipList.begin() + first + t.flipsPerLocation[i]);
        Ns before = i ? t.cumulativeTimeNs[i - 1] : 0.0;
        return r.flipsPerLocation.size() == 1
               && r.flipsPerLocation[0] == t.flipsPerLocation[i]
               && sameFlips(r.flipList, expect)
               && sameBits(before + r.simTimeNs, t.cumulativeTimeNs[i]);
    }

    /**
     * Re-run location i of a timed call on the Reference row store and
     * the Reference CPU engine: flips, flip records and sim time must
     * equal the timed call's, and ACTs the fast stack's.
     */
    void
    checkOnReference(const Call &call, unsigned i) const
    {
        SystemSpec fast(call.arch, sweepDimm());
        SystemSpec ref = fast;
        ref.referenceRowStore = true;
        ref.cpuModel = CpuModelKind::Reference;
        MetricsRegistry fast_m, ref_m;
        runLocation(fast, call, i, &fast_m);
        SweepResult r = runLocation(ref, call, i, &ref_m);
        checks.expect(sameLocation(r, call, i)
                          && ref_m.value("dram.acts")
                                 == fast_m.value("dram.acts"),
                      strFormat("%s location %u differs on the Reference "
                                "stack",
                                call.name().c_str(), i));
    }

    void
    expectComplete(const Call &call) const
    {
        checks.expect(call.result.flipsPerLocation.size() == locations
                          && call.acts > 0,
                      call.name() + " sweep returned an incomplete result");
    }

    void runTimed(EndToEnd &e2e) const;
    void runTraced(Layers &layers) const;

  private:
    void traceLocation(const Call &call, unsigned i, bool untraced_first,
                       std::vector<Access> &buffer, Layers &layers) const;

    const Options &opt;
    std::uint64_t budget;
    unsigned locations;
    Checks &checks;
};

void
SweepWorkload::runTimed(EndToEnd &e2e) const
{
    // Set-up: the calls' specs and patterns, and one discarded warm-up
    // location per architecture, all from a fixed seed.
    auto setUp = [&] {
        MetricsRegistry warm;
        for (const Call &c : roundCalls(0x5e7u, 0)) {
            if (c.rho)
                runLocation(SystemSpec(c.arch, sweepDimm()), c, 0, &warm);
        }
        e2e.setupActs = warm.value("dram.acts");
    };
    std::vector<std::vector<Call>> rounds;
    runWindow(opt.seconds, e2e, setUp, [&] {
        std::vector<Call> calls = roundCalls(opt.seed, rounds.size());
        for (Call &c : calls) {
            run(c);
            e2e.add(c.seconds, locations, c.acts);
        }
        rounds.push_back(std::move(calls));
    });
    e2e.work = strFormat("{\"calls_per_round\": 4, \"locations\": %u, "
                         "\"budget\": %llu, \"jobs\": %u}",
                         locations, static_cast<unsigned long long>(budget),
                         benchJobs);

    // Checks, outside the window: every call complete, and one sampled
    // location of each call kind re-run on the Reference stack.
    for (const std::vector<Call> &calls : rounds) {
        for (const Call &c : calls)
            expectComplete(c);
    }
    for (unsigned kind = 0; kind < 4; ++kind) {
        std::uint64_t pick = hashCombine(hashCombine(opt.seed, 0x5a3), kind);
        const Call &c = rounds[pick % rounds.size()][kind];
        checkOnReference(c, static_cast<unsigned>((pick >> 32) % locations));
    }
    checks.note(strFormat("sweep: %zu rounds of 4 calls x %u locations, 4 "
                          "locations checked on the Reference stack",
                          rounds.size(), locations));
}

/**
 * One sampled location, untraced (the program's own masked campaign
 * call, one job) and traced (the same location re-executed from
 * outside with the DRAM stream recorded), in the given order.
 */
void
SweepWorkload::traceLocation(const Call &call, unsigned i,
                             bool untraced_first, std::vector<Access> &buffer,
                             Layers &layers) const
{
    SystemSpec spec(call.arch, sweepDimm());
    MetricsRegistry own;
    SweepResult own_result;
    double untraced = 0.0;
    auto untracedRun = [&] {
        untraced = timed(
            [&] { own_result = runLocation(spec, call, i, &own); });
    };

    Layers before = layers;
    std::unique_ptr<RecordingSystem> sys;
    HammerOutcome out;
    double traced = 0.0;
    auto tracedRun = [&] {
        std::uint64_t task_seed = hashCombine(call.seed, i);
        traced = timed([&] {
            Clock::time_point t0 = Clock::now();
            sys = std::make_unique<RecordingSystem>(
                spec.instantiate(task_seed), std::move(buffer));
            layers.instantiateS += secondsSince(t0);
            ++layers.instantiates;
            HammerSession session(*sys, task_seed);
            HammerLocation loc =
                sweepLocationAt(spec.dimm->geom, call.pattern, call.seed, i);
            out = replicaHammer(session, call.pattern, loc, call.cfg, layers);
        });
    };
    if (untraced_first) {
        untracedRun();
        tracedRun();
    } else {
        tracedRun();
        untracedRun();
    }
    layers.addUnit(untraced, traced,
                   (layers.instantiateS - before.instantiateS)
                       + (layers.buildKernelS - before.buildKernelS)
                       + (layers.verifyS - before.verifyS)
                       + (layers.cpuRunS - before.cpuRunS));

    SystemSpec no_trr = spec;
    no_trr.trr.enabled = false;
    const std::vector<Access> &s = sys->stream();
    PairedReplay r = replayPaired(spec, no_trr, s);
    addReplay(layers, r, s.size());
    layers.cpuDramReplayS += r.onS;
    layers.trrOnS += r.onS;
    layers.trrOffS += r.offS;
    layers.trrActs += r.acts;

    std::string what = strFormat("%s location %u", call.name().c_str(), i);
    checks.expect(r.mismatches == 0,
                  strFormat("%s: %llu replayed latencies differ",
                            what.c_str(),
                            static_cast<unsigned long long>(r.mismatches)));
    std::uint64_t acts = sys->dimm().totalActs();
    checks.expect(acts == own.value("dram.acts") && r.acts == acts,
                  what + ": ACT counts differ between program, replica and "
                         "replay");
    checks.expect(sameLocation(own_result, call, i)
                      && sameFlips(out.flipList, own_result.flipList),
                  what + ": replica flips differ");
    buffer = sys->releaseBuffer();
}

void
SweepWorkload::runTraced(Layers &layers) const
{
    // One untraced round with the pool's stats, then three sampled
    // locations of each call re-executed from outside.
    std::vector<Call> calls = roundCalls(opt.seed, 0);
    for (Call &c : calls) {
        run(c);
        expectComplete(c);
        layers.poolBusyMs += c.stats.taskWallMs.sum();
        layers.poolCapacityMs += c.stats.jobs * c.stats.wallNs / 1e6;
    }

    std::vector<Access> buffer = recordingBuffer(budget * 2);
    bool untraced_first = true;
    const unsigned per_call = opt.tiny ? 1 : 3;
    for (const Call &c : calls) {
        for (unsigned k = 0; k < per_call; ++k) {
            unsigned i = static_cast<unsigned>(
                hashCombine(hashCombine(c.seed, c.rho), k) % locations);
            traceLocation(c, i, untraced_first, buffer, layers);
            untraced_first = !untraced_first;
        }
    }
    checks.note(strFormat("sweep trace: %zu calls, %u sampled locations "
                          "each",
                          calls.size(), per_call));
}

} // namespace

void
runSweep(const Options &opt, EndToEnd &e2e, Layers &layers, Checks &checks)
{
    SweepWorkload w(opt, checks);
    if (opt.trace)
        w.runTraced(layers);
    else
        w.runTimed(e2e);
}

} // namespace rhobench
