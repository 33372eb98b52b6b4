/**
 * @file
 * google-benchmark micro-kernels for the hot paths of the simulator:
 * mapping decode/encode, DRAM access, the SBDR probe's fresh-row
 * path, branch prediction and the CPU model's per-op cost.
 */

#include <benchmark/benchmark.h>

#include "cpu/branch_predictor.hh"
#include "cpu/sim_cpu.hh"
#include "hammer/tuned_configs.hh"
#include "memsys/memory_system.hh"
#include "memsys/timing_probe.hh"

using namespace rho;

namespace
{

void
BM_MappingDecode(benchmark::State &state)
{
    AddressMapping m = mappingFor(Arch::RaptorLake, 16, 2);
    Rng rng(1);
    PhysAddr pa = rng.uniformInt(0, m.memBytes() - 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.decode(pa));
        pa += 4097;
        if (pa >= m.memBytes())
            pa -= m.memBytes();
    }
}
BENCHMARK(BM_MappingDecode);

void
BM_MappingEncode(benchmark::State &state)
{
    AddressMapping m = mappingFor(Arch::RaptorLake, 16, 2);
    DramAddr da{3, 1000, 0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.encode(da));
        da.row = (da.row + 1) & (m.numRows() - 1);
    }
}
BENCHMARK(BM_MappingEncode);

void
BM_DimmAccess(benchmark::State &state)
{
    const auto &prof = DimmProfile::byId("S2");
    Dimm dimm(prof, DramTiming::ddr4(3200), TrrConfig{});
    Ns now = 0.0;
    std::uint64_t row = 1000;
    for (auto _ : state) {
        auto r = dimm.access({0, row, 0}, now);
        now += r.latency;
        row = row == 1000 ? 1002 : 1000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DimmAccess);

void
BM_ProbeFreshRows(benchmark::State &state)
{
    // One SBDR measurement per iteration, as mapping recovery takes
    // them: every pair lands on two rows no earlier pair touched, so
    // each ACT materializes fresh row state for itself and its four
    // neighbours. Rows step by 5, keeping neighbourhoods disjoint.
    MemorySystem sys(Arch::RaptorLake, DimmProfile::byId("S1"),
                     TrrConfig{}, 5);
    TimingProbe probe(sys, 5);
    const AddressMapping &m = sys.mapping();
    const std::uint32_t banks = m.numBanks();
    const std::uint64_t slots = m.numRows() / 10;
    std::uint64_t i = 0;
    for (auto _ : state) {
        std::uint32_t bank = static_cast<std::uint32_t>(i % banks);
        std::uint64_t row = (i / banks % slots) * 10;
        benchmark::DoNotOptimize(probe.measurePair(
            m.encode({bank, row, 0}), m.encode({bank, row + 5, 0})));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeFreshRows);

void
BM_BranchPredictor(benchmark::State &state)
{
    BranchPredictor bp;
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bp.predictAndUpdate(0x42, rng.chance(0.5), 1));
    }
}
BENCHMARK(BM_BranchPredictor);

void
BM_SimCpuHammerLoop(benchmark::State &state)
{
    // End-to-end cost per simulated hammer access, full stack.
    MemorySystem sys(Arch::RaptorLake, DimmProfile::byId("S2"),
                     TrrConfig{}, 3);
    HammerSession session(sys, 3);
    Rng rng(4);
    auto pattern = HammerPattern::randomNonUniform(rng);
    HammerConfig cfg = rhoConfig(Arch::RaptorLake, true,
                                 static_cast<std::uint64_t>(
                                     state.range(0)));
    auto loc = session.randomLocation(pattern, cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(session.hammer(pattern, loc, cfg));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimCpuHammerLoop)->Arg(50000)->Unit(
    benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
