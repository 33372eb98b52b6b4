/**
 * @file
 * rhobench: the repo benchmark. One process runs one workload.
 *
 *   rhobench --workload sweep|service|attack --seed N --seconds S
 *            --trace 0|1 [--tiny] [--fail-check] [--commit ID]
 *            [--tmp DIR]
 *
 * --trace 0 prints the end-to-end metrics, measured with tracing off;
 * --trace 1 prints the per-layer metrics of a separate traced run. Both
 * check the simulated results and count failed operations. The last
 * line of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * The seed picks patterns, locations and placement only; the work per
 * round, the set-up and the warm-up task are the same for every seed.
 * Host time is wall clock (steady_clock); simulated time never enters a
 * metric. A host-speed probe (a fixed integer loop) is timed before and
 * after the workload and printed as a diagnostic; it is never a metric
 * or a divisor.
 *
 * --tiny shrinks every size (smoke test); --fail-check makes one
 * correctness check fail on purpose, so the smoke test can see that a
 * failure is reported.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/logging.hh"
#include "harness.hh"

#ifndef RHOBENCH_BUILD_TYPE
#define RHOBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace rhobench;

// Initialised before main() runs: the earliest point this program
// itself can observe, charged to setup_s.
const Clock::time_point processStart = Clock::now();

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rhobench: %s\nusage: rhobench --workload "
                 "sweep|service|attack --seed N --seconds S --trace 0|1 "
                 "[--tiny] [--fail-check] [--commit ID] [--tmp DIR]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::atof(value().c_str());
        } else if (a == "--trace") {
            opt.trace = value() == "1";
        } else if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--fail-check") {
            opt.failCheck = true;
        } else if (a == "--commit") {
            opt.commit = value();
        } else if (a == "--tmp") {
            opt.tmpDir = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (opt.workload != "sweep" && opt.workload != "service"
        && opt.workload != "attack")
        usage(("unknown workload " + opt.workload).c_str());
    if (!have_seed)
        usage("--workload and --seed are required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

/** JSON string literal for the few free-form strings we print. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** The per-run temp directory, removed on every way out of main(). */
struct TempDir
{
    std::string path;

    explicit TempDir(std::string p) : path(std::move(p))
    {
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

void
runWorkload(const Options &opt, EndToEnd &e2e, Layers &layers,
            Checks &checks)
{
    if (opt.workload == "sweep")
        runSweep(opt, e2e, layers, checks);
    else if (opt.workload == "service")
        runService(opt, e2e, layers, checks);
    else
        runAttack(opt, e2e, layers, checks);
}

/** Check the reconciliation of a traced run's layer times. */
void
checkReconciliation(const Options &opt, const std::vector<Metric> &metrics,
                    Checks &checks)
{
    double unaccounted = 0.0;
    for (const Metric &m : metrics) {
        if (m.name == "bench.unaccounted_ratio")
            unaccounted = m.value;
    }
    bool ok = unaccounted <= reconcileTolerance
              && unaccounted >= -reconcileTolerance;
    // Tiny units are too short to time; --tiny only checks the output.
    if (!opt.tiny)
        checks.expect(ok, "layer times do not reconcile with task wall");
    checks.note(rho::strFormat(
        "reconciliation: layer times cover %.1f%% of untraced task wall "
        "(tolerance +/-%.0f%%): %s",
        (1.0 - unaccounted) * 100.0, reconcileTolerance * 100.0,
        ok ? "ok" : "OUT OF TOLERANCE"));
}

} // namespace

int
main(int argc, char **argv)
{
    double pre_main = secondsSince(processStart);
    Options opt = parse(argc, argv);
    // The simulator's info: lines would otherwise be printed, and timed,
    // inside the window.
    rho::setVerbose(false);

    if (opt.tmpDir.empty())
        opt.tmpDir = ".bench_build/tmp";
    opt.tmpDir += "/" + opt.workload + "." + std::to_string(::getpid());

    std::printf("host: {\"nproc\": %u, \"compiler\": %s, \"build_type\": "
                "%s, \"commit\": %s, \"workload\": %s, \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"jobs\": %u}\n",
                std::thread::hardware_concurrency(),
                jsonString("g++ " __VERSION__).c_str(),
                jsonString(RHOBENCH_BUILD_TYPE).c_str(),
                jsonString(opt.commit).c_str(), jsonString(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, benchJobs);
    double steal_before = hostStealSeconds();
    double probe_before = hostProbeSeconds();
    std::printf("host probe before: %.4f s\n", probe_before);
    std::fflush(stdout);

    EndToEnd e2e;
    e2e.preMainS = pre_main;
    Layers layers;
    Checks checks;
    try {
        TempDir tmp(opt.tmpDir);
        runWorkload(opt, e2e, layers, checks);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rhobench: %s\n", e.what());
        return 1;
    }
    double probe_after = hostProbeSeconds();

    std::vector<Metric> metrics = opt.trace ? layers.metrics()
                                            : e2e.metrics();
    if (opt.trace) {
        checkReconciliation(opt, metrics, checks);
    } else {
        checks.note(rho::strFormat(
            "window: %.3f s of timed tasks, %llu rounds, %llu tasks, "
            "%llu sim ACTs",
            e2e.wallS, static_cast<unsigned long long>(e2e.rounds),
            static_cast<unsigned long long>(e2e.tasks),
            static_cast<unsigned long long>(e2e.acts)));
        checks.note(rho::strFormat(
            "work: {\"round\": %s, \"setup_repeats\": %u, "
            "\"setup_acts\": %llu}",
            e2e.work.c_str(), setupRepeats,
            static_cast<unsigned long long>(e2e.setupActs)));
        std::string reps = "set-up repetitions (s):";
        for (double s : e2e.setupS)
            reps += rho::strFormat(" %.4f", s);
        checks.note(reps);
    }
    if (opt.failCheck)
        checks.expect(false, "forced failure (--fail-check)");
    for (const std::string &n : checks.notes)
        std::printf("%s\n", n.c_str());
    std::printf("host probe after: %.4f s (%.3fx the probe before)\n",
                probe_after, probe_after / probe_before);
    std::printf("host steal during the run: %.2f CPU-s\n",
                hostStealSeconds() - steal_before);
    std::printf("checks: %llu failed of %llu attempted\n",
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    for (const Metric &m : metrics)
        std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = rho::strFormat(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        checks.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(std::max<std::uint64_t>(
            checks.attempted, 1)),
        static_cast<unsigned long long>(checks.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += rho::strFormat("%s%s: {\"value\": %.17g, \"unit\": %s}",
                               i ? ", " : "",
                               jsonString(metrics[i].name).c_str(),
                               metrics[i].value,
                               jsonString(metrics[i].unit).c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
