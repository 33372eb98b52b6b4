#include "memsys/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rho
{

MemorySystem
SystemSpec::instantiate(std::uint64_t seed) const
{
    if (!dimm)
        panic("SystemSpec::instantiate: no DIMM profile set");
    MemorySystem sys(arch, *dimm, trr, seed, rfm, prac, ecc,
                     refreshBoost);
    if (referenceRowStore)
        sys.dimm().setRowStore(RowStoreKind::Reference);
    sys.setCpuModel(cpuModel);
    return sys;
}

MemorySystem::MemorySystem(Arch arch, const DimmProfile &dimm,
                           const TrrConfig &trr_cfg, std::uint64_t seed,
                           const RfmConfig &rfm_cfg,
                           const PracConfig &prac_cfg,
                           const EccConfig &ecc_cfg, double refresh_boost)
    : MemorySystem(arch, dimm,
                   mappingFor(arch, dimm.geom.sizeGib(), dimm.geom.ranks),
                   trr_cfg, seed, rfm_cfg, prac_cfg, ecc_cfg,
                   refresh_boost)
{
}

MemorySystem::MemorySystem(Arch arch, const DimmProfile &dimm,
                           AddressMapping mapping, const TrrConfig &trr_cfg,
                           std::uint64_t seed, const RfmConfig &rfm_cfg,
                           const PracConfig &prac_cfg,
                           const EccConfig &ecc_cfg, double refresh_boost)
    : archKind(arch), params(&ArchParams::forArch(arch))
{
    // The platform clamps the DIMM to its supported data rate. The
    // profile's MemStandard picks the timing preset; Auto keeps the
    // historical rule (>= 4000 MT/s rating means DDR5, else DDR4).
    MemStandard std_ = dimm.standard;
    if (std_ == MemStandard::Auto)
        std_ = dimm.freqMts >= 4000 ? MemStandard::Ddr5 : MemStandard::Ddr4;
    unsigned mts = std_ == MemStandard::Ddr4
                       ? std::min(dimm.freqMts, archMemFreq(arch))
                       : dimm.freqMts;
    DramTiming timing;
    switch (std_) {
      case MemStandard::Ddr4:
        timing = DramTiming::ddr4(mts);
        break;
      case MemStandard::Ddr5:
        timing = DramTiming::ddr5(mts);
        break;
      case MemStandard::Lpddr4:
        timing = DramTiming::lpddr4(mts);
        break;
      case MemStandard::Auto:
        panic("MemorySystem: unresolved MemStandard::Auto");
    }
    // Shallow-controller platforms expose REF stalls to the core even
    // on DDR4 parts (hammer/ref_sync relies on the spikes).
    timing.refBlocking = timing.refBlocking || archRefBlocking(arch);
    // Refresh boosting: the controller issues REF this many times
    // faster, so both the tREFI tick (TRR/RFM clocks, REF blocking)
    // and the tREFW all-rows sweep shrink together.
    if (refresh_boost <= 0.0)
        panic("MemorySystem: refresh boost must be positive");
    if (refresh_boost != 1.0) {
        timing.tREFI /= refresh_boost;
        timing.tREFW /= refresh_boost;
    }
    mc = std::make_unique<MemoryController>(std::move(mapping), dimm,
                                            timing, trr_cfg, rfm_cfg,
                                            prac_cfg, ecc_cfg);
    (void)seed;
}

Ns
MemorySystem::dramAccess(PhysAddr pa, Ns now)
{
    Ns t = std::max(clock, now);
    DramAccessResult res = mc->access(pa, t);
    clock = t;
    return res.latency;
}

const void *
MemorySystem::resolveLine(PhysAddr pa)
{
    auto it = resolvedIndex.find(pa);
    if (it != resolvedIndex.end())
        return it->second;
    resolvedLines.push_back(mc->decode(pa));
    const DramAddr *da = &resolvedLines.back();
    resolvedIndex.emplace(pa, da);
    return da;
}

Ns
MemorySystem::dramAccessResolved(const void *handle, Ns now)
{
    // Must stay the exact twin of dramAccess() minus the decode.
    Ns t = std::max(clock, now);
    DramAccessResult res =
        mc->access(*static_cast<const DramAddr *>(handle), t);
    clock = t;
    return res.latency;
}

} // namespace rho
