/**
 * @file
 * Perf-regression harness for the activation hot path.
 *
 * Times two workloads across 3 seeds (medians reported):
 *  - device loop: raw double-sided hammering straight on Dimm::access,
 *    the loop the flat row-state fast path accelerates. Run through
 *    both row stores, so the flat-vs-reference speedup is measured in
 *    the same process. Mitigations are disabled here: the TRR sampler
 *    is identical (rng-bound) code on both paths and would only dilute
 *    the row-state signal being guarded;
 *  - end to end: a full HammerSession::hammer() with the tuned rho
 *    config (CPU model + controller + device), the configuration every
 *    table/figure bench pays for. Run twice: through the default fast
 *    stack (CpuModelKind::Blocked + RowStoreKind::Flat) and through
 *    the full original stack (Reference + Reference), the same
 *    differential the oracle suites prove bit-identical — so the
 *    speedup is measured between observably interchangeable engines.
 *
 * Writes BENCH_rho.json (override with --out PATH) in the stable
 * "rho-bench-v1" schema:
 *
 *     {
 *       "schema": "rho-bench-v1",
 *       "scale": <RHO_BENCH_SCALE>,
 *       "seeds": [1, 2, 3],
 *       "metrics": {
 *         "device_acts_per_sec": ...,        // higher is better
 *         "device_wall_ns_per_sim_ns": ...,  // lower is better
 *         "device_speedup_flat_vs_reference": ...,
 *         "e2e_wall_ns_per_sim_ns": ...,
 *         "e2e_blocked_acts_per_sec": ...,
 *         "e2e_reference_acts_per_sec": ...,
 *         "e2e_reference_wall_ns_per_sim_ns": ...,
 *         "e2e_speedup_blocked_vs_reference": ...,
 *         "service_locs_per_sec": ...,          // supervised campaign
 *         "service_relative_throughput": ...,   // vs in-process run
 *         "device_lpddr4_acts_per_sec": ...,    // per-backend records
 *         "e2e_zen3_acts_per_sec": ...,         //   (informational,
 *         "e2e_cortexa72_acts_per_sec": ...     //    never gated)
 *       }
 *     }
 *
 * service_relative_throughput guards the campaign-service supervisor:
 * a sweep sharded over worker processes (same total parallelism as
 * the in-process run it is divided by) pays only for supervision,
 * fork, status files and the journal merge. The committed baseline
 * (0.95) records the characterized ~5% overhead; the metric carries
 * its own fixed 0.10 check threshold, independent of --threshold, so
 * the supervisor may never fall below ~85% of in-process throughput
 * — i.e. overhead is gated at roughly the 10% mark.
 *
 * Modes:
 *   --out PATH        where to write the JSON (default BENCH_rho.json)
 *   --check BASELINE  compare the higher-is-better metrics against a
 *                     committed baseline; exit 1 if any drops by more
 *                     than the threshold (default 25%, --threshold F)
 *   --selfcheck       re-read the written file and validate the schema
 *                     (used by the bench smoke CTest); exit 1 on error
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "dram/dimm.hh"
#include "dram/dimm_profile.hh"
#include "hammer/sweep.hh"
#include "hammer/tuned_configs.hh"
#include "service/campaign_service.hh"

using namespace rho;

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

struct LoopResult
{
    double actsPerSec = 0.0;
    double wallNsPerSimNs = 0.0;
};

/** Raw device activation loop (no CPU model), one location per seed. */
LoopResult
deviceLoop(RowStoreKind kind, std::uint64_t seed, std::uint64_t rounds,
           const DimmProfile &p = DimmProfile::byId("S2"),
           const DramTiming *timing = nullptr)
{
    TrrConfig trr;
    trr.enabled = false; // pure row-state machinery (see file header)
    Dimm d(p, timing ? *timing : DramTiming::ddr4(p.freqMts), trr);
    d.setRowStore(kind);
    std::uint32_t bank =
        static_cast<std::uint32_t>(seed % d.geometry().flatBanks());
    std::uint64_t base = 1000 + (seed * 7919) % (d.geometry().rowsPerBank
                                                 - 1016);
    d.fillRow(bank, base + 1, 0x55, 0.0);

    Ns now = 0.0;
    Clock::time_point t0 = Clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        now += d.access({bank, base, 0}, now).latency;
        now += d.access({bank, base + 2, 0}, now).latency;
    }
    double wall = elapsedNs(t0);
    LoopResult res;
    res.actsPerSec = d.totalActs() / (wall * 1e-9);
    res.wallNsPerSimNs = wall / now;
    return res;
}

/**
 * Full pipeline: tuned rho attack through the CPU model, with the
 * engine pair selected per run (fast stack vs original stack).
 */
LoopResult
endToEnd(std::uint64_t seed, std::uint64_t budget, CpuModelKind cpu,
         RowStoreKind row, Arch arch = Arch::RaptorLake,
         const DimmProfile &profile = DimmProfile::byId("S2"))
{
    MemorySystem sys(arch, profile, TrrConfig{}, seed);
    sys.setCpuModel(cpu);
    sys.dimm().setRowStore(row);
    HammerSession session(sys, seed);
    HammerConfig cfg = rhoConfig(arch, true, budget);
    HammerPattern pattern = HammerPattern::doubleSided();
    HammerLocation loc = session.randomLocation(pattern, cfg);

    Clock::time_point t0 = Clock::now();
    session.hammer(pattern, loc, cfg);
    double wall = elapsedNs(t0);
    LoopResult res;
    res.actsPerSec = sys.dimm().totalActs() / (wall * 1e-9);
    res.wallNsPerSimNs = wall / std::max(sys.now(), 1.0);
    return res;
}

/**
 * Campaign-service supervisor overhead: the same sweep run once
 * in-process (journaled, 2 jobs) and once through the supervisor
 * (2 shards x 2 worker processes, 1 job each — identical total
 * parallelism), fsync disabled on both so only supervision, fork,
 * status traffic and the journal merge differ.
 */
struct ServicePair
{
    double inprocLps = 0.0;  // locations/sec, in-process journaled run
    double serviceLps = 0.0; // locations/sec, supervised sharded run
};

ServicePair
serviceOverhead(std::uint64_t seed, std::uint64_t budget)
{
    SystemSpec spec(Arch::RaptorLake, DimmProfile::byId("S2"));
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, false, budget);
    Rng prng(seed);
    HammerPattern pattern = HammerPattern::randomNonUniform(prng);

    SweepParams params;
    params.numLocations = 16;
    std::string base = "/tmp/rho_bench_service." +
                       std::to_string(static_cast<long>(::getpid())) +
                       "." + std::to_string(seed);

    // Same total parallelism on both sides, capped by the machine: on
    // a single-core runner a 2-worker service would only measure
    // context-switch pressure, not supervision cost.
    unsigned par = std::max(
        1u, std::min(2u, std::thread::hardware_concurrency()));

    SweepParams inproc = params;
    inproc.jobs = par;
    inproc.checkpointPath = base + ".inproc";
    inproc.journal.fsync = FsyncPolicy::Never;

    service::ServiceParams svc;
    // More shards than workers: the supervisor launches shards as
    // slots free up, balancing uneven per-location sim times the same
    // way the in-process pool balances tasks.
    svc.shards = 2 * par;
    svc.jobsPerWorker = 1;
    svc.journalBase = base;
    svc.fsync = FsyncPolicy::Never;
    svc.supervisor.workers = par;
    svc.supervisor.pollIntervalS = 0.002;

    // Min-of-2 walls per engine: the overhead being measured is
    // structural (fork, polling, journal merge), scheduler noise is
    // additive — the minimum converges on the structural cost.
    double inproc_wall = 0.0, service_wall = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        std::remove(inproc.checkpointPath.c_str());
        Clock::time_point t0 = Clock::now();
        sweepCampaign(spec, pattern, cfg, inproc, seed);
        double w = elapsedNs(t0);
        inproc_wall = rep ? std::min(inproc_wall, w) : w;
        std::remove(inproc.checkpointPath.c_str());

        for (unsigned k = 0; k < svc.shards; ++k) {
            std::string shard = base + ".shard" + std::to_string(k);
            std::remove(shard.c_str());
            std::remove((shard + ".status").c_str());
        }
        std::remove((base + ".merged").c_str());
        t0 = Clock::now();
        service::serviceSweepCampaign(spec, pattern, cfg, params, seed,
                                      svc);
        w = elapsedNs(t0);
        service_wall = rep ? std::min(service_wall, w) : w;
    }
    for (unsigned k = 0; k < svc.shards; ++k) {
        std::string shard = base + ".shard" + std::to_string(k);
        std::remove(shard.c_str());
        std::remove((shard + ".status").c_str());
    }
    std::remove((base + ".merged").c_str());

    ServicePair r;
    r.inprocLps = params.numLocations / (inproc_wall * 1e-9);
    r.serviceLps = params.numLocations / (service_wall * 1e-9);
    return r;
}

double
median3(double a, double b, double c)
{
    double v[3] = {a, b, c};
    std::sort(v, v + 3);
    return v[1];
}

/** Scan `text` for `"key": <number>`; false when the key is absent. */
bool
findNumber(const std::string &text, const std::string &key, double &out)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    const char *s = text.c_str() + pos + needle.size();
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s)
        return false;
    out = v;
    return true;
}

const char *const metricNames[] = {
    "device_acts_per_sec",
    "device_wall_ns_per_sim_ns",
    "device_speedup_flat_vs_reference",
    "e2e_wall_ns_per_sim_ns",
    "e2e_blocked_acts_per_sec",
    "e2e_reference_acts_per_sec",
    "e2e_reference_wall_ns_per_sim_ns",
    "e2e_speedup_blocked_vs_reference",
    "service_locs_per_sec",
    "service_relative_throughput",
    // Per-backend throughput records (informational, not gated): the
    // Zen backend pays for the non-linear mapping + REF-blocking
    // model, the ARMv8 backend for LPDDR4 timing + synchronous
    // flushes, the LPDDR4 device loop for the REF-stall branch on the
    // raw activation path.
    "device_lpddr4_acts_per_sec",
    "e2e_zen3_acts_per_sec",
    "e2e_cortexa72_acts_per_sec",
};
constexpr unsigned numMetrics = 13;

/**
 * Higher-is-better metrics gated by --check. A negative threshold
 * defers to the global --threshold; a fixed value pins the gate for
 * that metric regardless of the flag.
 */
struct CheckedMetric
{
    const char *name;
    double threshold;
};
const CheckedMetric checkedMetrics[] = {
    {"device_acts_per_sec", -1.0},
    {"device_speedup_flat_vs_reference", -1.0},
    {"e2e_blocked_acts_per_sec", -1.0},
    {"e2e_speedup_blocked_vs_reference", -1.0},
    // Supervisor overhead gate: the sharded service run must keep
    // >=90% of in-process throughput (fixed 10% floor).
    {"service_relative_throughput", 0.10},
};

std::string
renderJson(const double metrics[numMetrics],
           const std::vector<std::uint64_t> &seeds)
{
    std::ostringstream os;
    os.precision(6);
    os << "{\n  \"schema\": \"rho-bench-v1\",\n  \"scale\": "
       << bench::scale() << ",\n  \"seeds\": [";
    for (std::size_t i = 0; i < seeds.size(); ++i)
        os << (i ? ", " : "") << seeds[i];
    os << "],\n  \"metrics\": {\n";
    for (unsigned i = 0; i < numMetrics; ++i) {
        os << "    \"" << metricNames[i] << "\": " << metrics[i]
           << (i + 1 < numMetrics ? ",\n" : "\n");
    }
    os << "  }\n}\n";
    return os.str();
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_rho.json";
    std::string baseline_path;
    bool selfcheck = false;
    double threshold = 0.25;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--check") && i + 1 < argc)
            baseline_path = argv[++i];
        else if (!std::strcmp(argv[i], "--threshold") && i + 1 < argc)
            threshold = std::atof(argv[++i]);
        else if (!std::strcmp(argv[i], "--selfcheck"))
            selfcheck = true;
    }

    bench::banner("perf", "activation hot-path regression harness "
                          "(BENCH_rho.json)");

    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    std::uint64_t device_rounds = bench::scaled(400000);
    // The reference store is the slow path being guarded against; a
    // shorter loop reaches steady state just the same.
    std::uint64_t ref_rounds = std::max<std::uint64_t>(
        device_rounds / 8, 1);
    std::uint64_t e2e_budget = bench::scaled(200000);
    std::uint64_t service_budget = bench::scaled(120000);

    double flat_aps[3], flat_wps[3], speedup[3], e2e_aps[3], e2e_wps[3];
    double e2e_ref_aps[3], e2e_ref_wps[3], e2e_speedup[3];
    double svc_lps[3], svc_rel[3];
    double lp_aps[3], zen_aps[3], arm_aps[3];
    // Service first, while the heap is small: body-mode workers fork
    // this process, and fork cost scales with the parent's page
    // tables — running after the device/e2e benches would charge
    // their allocations to the supervisor.
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        ServicePair svc = serviceOverhead(seeds[i], service_budget);
        svc_lps[i] = svc.serviceLps;
        svc_rel[i] = svc.serviceLps / svc.inprocLps;
        std::printf("seed %llu: service %.2f locs/s "
                    "(%.2fx of in-process)\n",
                    static_cast<unsigned long long>(seeds[i]),
                    svc_lps[i], svc_rel[i]);
    }
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        LoopResult flat =
            deviceLoop(RowStoreKind::Flat, seeds[i], device_rounds);
        LoopResult ref =
            deviceLoop(RowStoreKind::Reference, seeds[i], ref_rounds);
        LoopResult e2e = endToEnd(seeds[i], e2e_budget,
                                  CpuModelKind::Blocked,
                                  RowStoreKind::Flat);
        LoopResult e2e_ref = endToEnd(seeds[i], e2e_budget,
                                      CpuModelKind::Reference,
                                      RowStoreKind::Reference);
        flat_aps[i] = flat.actsPerSec;
        flat_wps[i] = flat.wallNsPerSimNs;
        speedup[i] = flat.actsPerSec / ref.actsPerSec;
        e2e_aps[i] = e2e.actsPerSec;
        e2e_wps[i] = e2e.wallNsPerSimNs;
        e2e_ref_aps[i] = e2e_ref.actsPerSec;
        e2e_ref_wps[i] = e2e_ref.wallNsPerSimNs;
        e2e_speedup[i] = e2e.actsPerSec / e2e_ref.actsPerSec;

        // Non-Intel backends, fast stack only (informational records).
        const DimmProfile &lp = DimmProfile::lpddr4Sample();
        DramTiming lp_tim = DramTiming::lpddr4(lp.freqMts);
        LoopResult lp_dev = deviceLoop(RowStoreKind::Flat, seeds[i],
                                       ref_rounds, lp, &lp_tim);
        LoopResult zen = endToEnd(seeds[i], e2e_budget,
                                  CpuModelKind::Blocked,
                                  RowStoreKind::Flat, Arch::Zen3);
        LoopResult arm = endToEnd(seeds[i], e2e_budget,
                                  CpuModelKind::Blocked,
                                  RowStoreKind::Flat, Arch::CortexA72,
                                  lp);
        lp_aps[i] = lp_dev.actsPerSec;
        zen_aps[i] = zen.actsPerSec;
        arm_aps[i] = arm.actsPerSec;

        std::printf("seed %llu: device %.2fM acts/s (ref %.2fM, "
                    "speedup %.2fx), end-to-end %.2fM acts/s "
                    "(ref %.2fM, speedup %.2fx), zen3 %.2fM, "
                    "cortex-a72 %.2fM\n",
                    static_cast<unsigned long long>(seeds[i]),
                    flat.actsPerSec / 1e6, ref.actsPerSec / 1e6,
                    speedup[i], e2e.actsPerSec / 1e6,
                    e2e_ref.actsPerSec / 1e6, e2e_speedup[i],
                    zen.actsPerSec / 1e6, arm.actsPerSec / 1e6);
    }

    double metrics[numMetrics] = {
        median3(flat_aps[0], flat_aps[1], flat_aps[2]),
        median3(flat_wps[0], flat_wps[1], flat_wps[2]),
        median3(speedup[0], speedup[1], speedup[2]),
        median3(e2e_wps[0], e2e_wps[1], e2e_wps[2]),
        median3(e2e_aps[0], e2e_aps[1], e2e_aps[2]),
        median3(e2e_ref_aps[0], e2e_ref_aps[1], e2e_ref_aps[2]),
        median3(e2e_ref_wps[0], e2e_ref_wps[1], e2e_ref_wps[2]),
        median3(e2e_speedup[0], e2e_speedup[1], e2e_speedup[2]),
        median3(svc_lps[0], svc_lps[1], svc_lps[2]),
        median3(svc_rel[0], svc_rel[1], svc_rel[2]),
        median3(lp_aps[0], lp_aps[1], lp_aps[2]),
        median3(zen_aps[0], zen_aps[1], zen_aps[2]),
        median3(arm_aps[0], arm_aps[1], arm_aps[2]),
    };

    std::printf("\nmedians over %zu seeds:\n", seeds.size());
    for (unsigned i = 0; i < numMetrics; ++i)
        std::printf("  %-34s %g\n", metricNames[i], metrics[i]);

    std::string json = renderJson(metrics, seeds);
    {
        std::ofstream out(out_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "FAIL: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        out << json;
    }
    std::printf("\nwrote %s\n", out_path.c_str());

    if (selfcheck) {
        std::string back;
        if (!readFile(out_path, back)
            || back.find("\"rho-bench-v1\"") == std::string::npos) {
            std::fprintf(stderr, "FAIL: %s missing rho-bench-v1 schema\n",
                         out_path.c_str());
            return 1;
        }
        for (const char *name : metricNames) {
            double v = 0.0;
            if (!findNumber(back, name, v) || !(v > 0.0)) {
                std::fprintf(stderr,
                             "FAIL: %s: metric %s missing or not a "
                             "positive number\n",
                             out_path.c_str(), name);
                return 1;
            }
        }
        std::printf("selfcheck: schema and all %u metrics OK\n",
                    numMetrics);
    }

    if (!baseline_path.empty()) {
        std::string base;
        if (!readFile(baseline_path, base)) {
            std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                         baseline_path.c_str());
            return 1;
        }
        bool ok = true;
        for (const CheckedMetric &m : checkedMetrics) {
            double want = 0.0, got = 0.0;
            if (!findNumber(base, m.name, want)) {
                std::fprintf(stderr,
                             "FAIL: baseline %s lacks metric %s\n",
                             baseline_path.c_str(), m.name);
                ok = false;
                continue;
            }
            findNumber(json, m.name, got);
            double t = m.threshold < 0.0 ? threshold : m.threshold;
            double floor = want * (1.0 - t);
            bool pass = got >= floor;
            std::printf("check %-34s %g vs baseline %g (floor %g): %s\n",
                        m.name, got, want, floor, pass ? "ok" : "REGRESSED");
            ok = ok && pass;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "FAIL: perf regressed more than %.0f%% against "
                         "%s\n",
                         threshold * 100.0, baseline_path.c_str());
            return 1;
        }
        std::printf("perf within %.0f%% of baseline %s\n",
                    threshold * 100.0, baseline_path.c_str());
    }
    return 0;
}
