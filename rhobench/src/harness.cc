#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <set>

namespace rhobench
{

using namespace rho;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        notes.push_back("FAILED: " + what);
    }
}

std::vector<Metric>
EndToEnd::metrics() const
{
    double wall = std::max(wallS, 1e-12);
    return {
        {"sim_acts_per_s", static_cast<double>(acts) / wall, "1/s"},
        {"tasks_per_s", static_cast<double>(tasks) / wall, "1/s"},
        {"setup_s", preMainS + median(setupS), "s"},
        {"peak_rss_mb", peakRss, "MB"},
    };
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
count(std::uint64_t n)
{
    return static_cast<double>(n);
}

} // namespace

std::vector<Metric>
Layers::metrics() const
{
    return {
        {"cpu.ns_per_access",
         ratio((cpuRunS - cpuDramReplayS) * 1e9, count(cpuAccesses)), "ns"},
        {"cpu.accesses", count(cpuAccesses), "count"},
        {"dram.ns_per_access", ratio(dramReplayS * 1e9, count(dramAccesses)),
         "ns"},
        {"dram.trr_ns_per_act", ratio((trrOnS - trrOffS) * 1e9,
                                      count(trrActs)),
         "ns"},
        {"dram.mitigation_ns_per_act",
         ratio((mitOnS - mitOffS) * 1e9, count(mitActs)), "ns"},
        {"dram.ecc_read_ns", ratio((eccReadOnS - eccReadOffS) * 1e9,
                                   count(eccBytes)),
         "ns"},
        {"dram.acts", count(dramActs), "count"},
        {"dram.act_ratio", ratio(count(dramActs), count(dramAccesses)),
         "ratio"},
        {"dram.trr_refreshes", count(trrRefreshes), "count"},
        {"dram.rfm_refreshes", count(rfmRefreshes), "count"},
        {"dram.prac_alerts", count(pracAlerts), "count"},
        {"dram.ecc_corrections", count(eccCorrections), "count"},
        {"memsys.instantiate_us",
         ratio(instantiateS * 1e6, count(instantiates)), "us"},
        {"memsys.dram_access_ns",
         ratio(memsysReplayS * 1e9, count(memsysAccesses)), "ns"},
        {"memsys.probe_us_per_pair", probeUsPerPair, "us"},
        {"mapping.decode_ns", decodeNs, "ns"},
        {"hammer.build_kernel_us",
         ratio(buildKernelS * 1e6, count(buildKernels)), "us"},
        {"hammer.verify_us", ratio(verifyS * 1e6, count(hammerRuns)), "us"},
        {"revng.self_ms", revngSelfMs, "ms"},
        {"os.setup_ms", osSetupMs, "ms"},
        {"os.stage2_ns", stage2Ns, "ns"},
        {"exploit.templating_ms", templatingMs, "ms"},
        {"exploit.escalation_ms", escalationMs, "ms"},
        {"exploit.takeovers", count(takeovers), "count"},
        {"exploit.cross_flips_raw", count(crossFlipsRaw), "count"},
        {"common.pool_efficiency", ratio(poolBusyMs, poolCapacityMs),
         "ratio"},
        {"common.journal_record_us",
         ratio(journalRecordS * 1e6, count(journalRecords)), "us"},
        {"common.journal_open_ms", journalOpenMs, "ms"},
        {"service.overhead_ratio", serviceOverheadRatio, "ratio"},
        {"service.supervise_ms", serviceSuperviseMs, "ms"},
        {"service.merge_ms", serviceMergeMs, "ms"},
        {"service.tasks_reexecuted", count(tasksReexecuted), "count"},
        {"bench.unaccounted_ratio",
         coverage.empty() ? 0.0 : 1.0 - median(coverage), "ratio"},
        {"bench.trace_overhead_ratio", median(overhead), "ratio"},
    };
}

namespace
{

// The probe loop's result lands here so it cannot be elided.
volatile std::uint64_t probeSink;

} // namespace

double
hostProbeSeconds()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < 50'000'000u; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    double secs = secondsSince(t0);
    probeSink = x;
    return secs;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // execve, so it would report the launcher's peak when that is
    // larger than ours.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
hostStealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t field[8] = {};
    stat >> cpu;
    for (std::uint64_t &f : field)
        stat >> f;
    long ticks = sysconf(_SC_CLK_TCK);
    return cpu == "cpu" && ticks > 0
               ? static_cast<double>(field[7]) / static_cast<double>(ticks)
               : 0.0;
}

// ---- record and replay -------------------------------------------

RecordingSystem::RecordingSystem(MemorySystem &&base,
                                 std::vector<Access> buffer)
    : MemorySystem(std::move(base)), rec(std::move(buffer))
{
    rec.clear();
}

Ns
RecordingSystem::dramAccess(PhysAddr pa, Ns now_ns)
{
    Ns t = std::max(now(), now_ns);
    Ns lat = MemorySystem::dramAccess(pa, now_ns);
    rec.push_back({pa, t, lat});
    return lat;
}

const void *
RecordingSystem::resolveLine(PhysAddr pa)
{
    auto it = lineIndex.find(pa);
    if (it != lineIndex.end())
        return it->second;
    lines.push_back({pa, MemorySystem::resolveLine(pa)});
    const Line *line = &lines.back();
    lineIndex.emplace(pa, line);
    return line;
}

Ns
RecordingSystem::dramAccessResolved(const void *handle, Ns now_ns)
{
    const Line *line = static_cast<const Line *>(handle);
    Ns t = std::max(now(), now_ns);
    Ns lat = MemorySystem::dramAccessResolved(line->inner, now_ns);
    rec.push_back({line->pa, t, lat});
    return lat;
}

std::vector<Access>
recordingBuffer(std::size_t n)
{
    std::vector<Access> buf(n, Access{0, 0.0, 0.0});
    buf.clear();
    return buf;
}

Replay
replayMemsys(MemorySystem &sys, const std::vector<Access> &s)
{
    Replay r;
    std::uint64_t acts0 = sys.dimm().totalActs();
    Clock::time_point t0 = Clock::now();
    for (const Access &a : s)
        r.mismatches += sys.dramAccess(a.pa, a.t) != a.lat;
    r.seconds = secondsSince(t0);
    r.acts = sys.dimm().totalActs() - acts0;
    return r;
}

namespace
{

// Decoded results land here so the timed decodes cannot be elided.
volatile std::uint64_t decodeSink;

} // namespace

double
decodeNsPerAccess(const AddressMapping &map, const std::vector<Access> &s)
{
    if (s.empty())
        return 0.0;
    std::uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    for (const Access &a : s) {
        DramAddr d = map.decode(a.pa);
        sink += d.bank ^ d.row ^ d.col;
    }
    double secs = secondsSince(t0);
    decodeSink = sink;
    return secs * 1e9 / static_cast<double>(s.size());
}

namespace
{

/** Decode a stream's addresses once, outside any timed loop. */
std::vector<DramAddr>
decodeStream(const AddressMapping &map, const std::vector<Access> &s)
{
    std::vector<DramAddr> da;
    da.reserve(s.size());
    for (const Access &a : s)
        da.push_back(map.decode(a.pa));
    return da;
}

/**
 * Replay a stream through `dimm` (which must have seen exactly the
 * stream's predecessors), batch-timed, counting latencies that differ
 * from the recorded ones.
 */
Replay
replayDimm(Dimm &dimm, const std::vector<DramAddr> &da,
           const std::vector<Access> &s)
{
    Replay r;
    std::uint64_t acts0 = dimm.totalActs();
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < s.size(); ++i)
        r.mismatches += dimm.access(da[i], s[i].t).latency != s[i].lat;
    r.seconds = secondsSince(t0);
    r.acts = dimm.totalActs() - acts0;
    return r;
}

} // namespace

PairedReplay
replayPaired(const SystemSpec &spec, const SystemSpec &off,
             const std::vector<Access> &s)
{
    std::vector<DramAddr> da =
        decodeStream(spec.instantiate(1).mapping(), s);
    std::vector<double> on_s, off_s;
    PairedReplay out;
    for (int rep = 0; rep < 3; ++rep) {
        MemorySystem with = spec.instantiate(1);
        Replay r = replayDimm(with.dimm(), da, s);
        on_s.push_back(r.seconds);
        out.mismatches += r.mismatches;
        if (rep == 0) {
            out.acts = r.acts;
            out.trrRefreshes = with.dimm().trrRefreshCount();
            out.rfmRefreshes = with.dimm().rfmCommandCount();
            out.pracAlerts = with.dimm().pracAlertCount();
        }
        MemorySystem without = off.instantiate(1);
        off_s.push_back(replayDimm(without.dimm(), da, s).seconds);
    }
    out.onS = median(on_s);
    out.offS = median(off_s);
    return out;
}

void
addReplay(Layers &layers, const PairedReplay &r, std::size_t accesses)
{
    layers.dramReplayS += r.onS;
    layers.dramAccesses += accesses;
    layers.dramActs += r.acts;
    layers.trrRefreshes += r.trrRefreshes;
    layers.rfmRefreshes += r.rfmRefreshes;
    layers.pracAlerts += r.pracAlerts;
}

HammerRows
hammerRows(const MemorySystem &sys, const HammerPattern &pattern,
           const HammerLocation &loc, const HammerConfig &cfg)
{
    HammerRows rows;
    unsigned banks = sys.mapping().numBanks();
    for (unsigned pair = 0; pair < pattern.numPairs(); ++pair) {
        for (unsigned b = 0; b < cfg.numBanks; ++b) {
            std::uint32_t bank = (loc.bank + b) % banks;
            std::uint64_t base = loc.baseRow + pattern.pairRowOffset(pair);
            rows.aggressors.push_back({bank, base});
            rows.aggressors.push_back({bank, base + 2});
        }
    }
    std::set<std::pair<std::uint32_t, std::uint64_t>> aggs(
        rows.aggressors.begin(), rows.aggressors.end());
    std::set<std::pair<std::uint32_t, std::uint64_t>> victims;
    auto max_row =
        static_cast<std::int64_t>(sys.dimm().geometry().rowsPerBank);
    for (auto [bank, row] : rows.aggressors) {
        for (int d = -2; d <= 2; ++d) {
            std::int64_t v = static_cast<std::int64_t>(row) + d;
            if (d == 0 || v < 0 || v >= max_row)
                continue;
            std::pair<std::uint32_t, std::uint64_t> key{
                bank, static_cast<std::uint64_t>(v)};
            if (!aggs.count(key))
                victims.insert(key);
        }
    }
    rows.victims.assign(victims.begin(), victims.end());
    return rows;
}

HammerOutcome
replicaHammer(HammerSession &session, const HammerPattern &pattern,
              const HammerLocation &loc, const HammerConfig &cfg,
              Layers &layers)
{
    MemorySystem &sys = session.system();
    Dimm &dimm = sys.dimm();
    HammerRows rows = hammerRows(sys, pattern, loc, cfg);

    Clock::time_point t0 = Clock::now();
    for (auto [bank, row] : rows.victims)
        dimm.fillRow(bank, row, cfg.victimFill, sys.now());
    for (auto [bank, row] : rows.aggressors)
        dimm.fillRow(bank, row, cfg.aggrFill, sys.now());
    double verify = secondsSince(t0);

    t0 = Clock::now();
    HammerKernel kernel = session.buildKernel(pattern, loc, cfg);
    layers.buildKernelS += secondsSince(t0);
    ++layers.buildKernels;

    session.cpu().setTracer(sys.tracer());
    dimm.clearFlipLog();
    Ns start = sys.now();
    t0 = Clock::now();
    PerfCounters perf = session.cpu().run(kernel, sys, cfg.accessBudget,
                                          start);
    layers.cpuRunS += secondsSince(t0);
    layers.cpuAccesses += perf.dramAccesses;
    sys.syncTo(start + perf.timeNs);

    HammerOutcome out;
    out.perf = perf;
    t0 = Clock::now();
    for (auto [bank, row] : rows.victims) {
        for (const FlipRecord &f :
             dimm.diffRow(bank, row, cfg.victimFill, sys.now()))
            out.flipList.push_back(f);
    }
    out.flips = out.flipList.size();
    for (auto [bank, row] : rows.victims)
        dimm.fillRow(bank, row, cfg.victimFill, sys.now());
    layers.verifyS += verify + secondsSince(t0);
    ++layers.hammerRuns;
    return out;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool
sameFlips(const std::vector<FlipRecord> &a, const std::vector<FlipRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].bank != b[i].bank || a[i].row != b[i].row
            || a[i].bitOffset != b[i].bitOffset || a[i].toOne != b[i].toOne
            || !sameBits(a[i].when, b[i].when))
            return false;
    }
    return true;
}

} // namespace rhobench
