#include "dram/dimm_profile.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace rho
{

// A fresh Rng per row seeds only as much of its first block as the
// handful of draws needs. test_dram pins the cells against the std
// derivation on every profile.
std::vector<WeakCell>
DimmProfile::weakCellsFor(std::uint32_t bank, std::uint64_t row) const
{
    std::vector<WeakCell> cells;
    if (!flippable || weakCellsPerRow <= 0.0)
        return cells;

    Rng rng(hashCombine(seed, hashCombine(bank, row)));
    std::uint64_t n = rng.poisson(weakCellsPerRow);
    cells.reserve(n);
    std::uint32_t max_bit = static_cast<std::uint32_t>(geom.rowBytes * 8);
    for (std::uint64_t i = 0; i < n; ++i) {
        WeakCell c;
        c.bitOffset = static_cast<std::uint32_t>(
            rng.uniformInt(0, max_bit - 1));
        c.trueCell = rng.chance(0.5);
        double hc = rng.logNormal(hcLogMean, hcLogSigma);
        c.threshold = static_cast<std::uint32_t>(
            std::max<double>(hcMin, hc));
        cells.push_back(c);
    }
    return cells;
}

namespace
{

DimmProfile
profile(const std::string &id, const std::string &date, unsigned mts,
        unsigned ranks, std::uint64_t rows, double wc_per_row,
        double hc_mean, double hc_sigma, std::uint32_t hc_min,
        std::uint64_t seed)
{
    DimmProfile p;
    p.id = id;
    p.productionDate = date;
    p.freqMts = mts;
    p.geom = DimmGeometry{ranks, 16, rows};
    p.seed = seed;
    p.flippable = wc_per_row > 0.0;
    p.weakCellsPerRow = wc_per_row;
    p.hcLogMean = std::log(hc_mean);
    p.hcLogSigma = hc_sigma;
    p.hcMin = hc_min;
    return p;
}

// The seven DDR4 UDIMMs of paper Table 2. Vulnerability parameters
// (weak-cell density and HC_first threshold distributions) are
// calibrated to the simulator's scaled 8 ms retention window so that
// relative flip-proneness matches Table 6:
// S4 > S3 > S2 ~ S1 >> S5 ~ H1 > M1 (= none).
const std::vector<DimmProfile> &
profiles()
{
    static const std::vector<DimmProfile> all = {
        profile("S1", "W35-2023", 3200, 2, 1ULL << 16,
                1.20, 11.0e3, 0.55, 3600, 0x51f00d01),
        profile("S2", "W33-2021", 3200, 1, 1ULL << 16,
                1.50, 10.0e3, 0.60, 3200, 0x51f00d02),
        profile("S3", "W30-2020", 2933, 2, 1ULL << 16,
                2.20, 9.0e3, 0.60, 2800, 0x51f00d03),
        profile("S4", "W49-2018", 2666, 2, 1ULL << 16,
                2.80, 8.0e3, 0.65, 2500, 0x51f00d04),
        profile("S5", "W22-2017", 2400, 2, 1ULL << 16,
                0.10, 14.0e3, 0.50, 5000, 0x51f00d05),
        profile("H1", "W13-2020", 2666, 2, 1ULL << 16,
                0.07, 15.0e3, 0.50, 5500, 0x51f00d06),
        profile("M1", "W01-2024", 3200, 2, 1ULL << 17,
                0.0, 1e9, 0.1, 1000000000u, 0x51f00d07),
    };
    return all;
}

} // namespace

const DimmProfile &
DimmProfile::byId(const std::string &id)
{
    for (const auto &p : profiles()) {
        if (p.id == id)
            return p;
    }
    fatal("DimmProfile::byId: unknown DIMM '%s'", id.c_str());
}

const DimmProfile &
DimmProfile::ddr5Sample()
{
    static const DimmProfile d1 = profile(
        "D1", "W10-2024", 4800, 2, 1ULL << 16,
        2.0, 8.0e3, 0.6, 2500, 0x51f00dd5);
    return d1;
}

const DimmProfile &
DimmProfile::lpddr4Sample()
{
    static const DimmProfile l1 = [] {
        DimmProfile p = profile("L1", "W20-2022", 3200, 1, 1ULL << 16,
                                1.80, 9.5e3, 0.60, 3000, 0x51f00dd4);
        p.standard = MemStandard::Lpddr4;
        // Half-Double configuration: the victim refresh only covers
        // r+-1, and each swept-row refresh re-disturbs its own
        // distance-1 neighbourhood — TRR's refreshes of r+-1 hammer
        // r+-2.
        p.refreshRadius = 1;
        p.refreshDisturbWeight = 0.30;
        p.halfDoubleWeight = 0.12;
        return p;
    }();
    return l1;
}

const std::vector<const DimmProfile *> &
DimmProfile::all()
{
    static const std::vector<const DimmProfile *> ptrs = [] {
        std::vector<const DimmProfile *> v;
        for (const auto &p : profiles())
            v.push_back(&p);
        return v;
    }();
    return ptrs;
}

} // namespace rho
