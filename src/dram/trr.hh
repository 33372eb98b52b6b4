/**
 * @file
 * Target Row Refresh (TRR) mitigation model.
 *
 * DDR4 devices ship an in-DRAM sampler that watches the ACT stream and
 * issues targeted refreshes to the neighbours of rows it believes are
 * being hammered. We model it as a per-bank Misra-Gries frequent-items
 * sketch with a small number of counters and probabilistic sampling,
 * which reproduces the behaviour the attack literature exploits:
 * uniform double-sided hammering is caught quickly, while non-uniform
 * (Blacksmith-style) patterns churn the counters with decoy rows and
 * keep the true aggressors below the trigger threshold.
 *
 * The controller-side pTRR mitigation (paper section 6) is also
 * modelled: every ACT has a small probability of an immediate
 * neighbour refresh, which no access pattern can evade.
 */

#ifndef RHO_DRAM_TRR_HH
#define RHO_DRAM_TRR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/replay_rng.hh"
#include "common/types.hh"
#include "trace/tracer.hh"

namespace rho
{

/** Tunables of the TRR / pTRR models. */
struct TrrConfig
{
    bool enabled = true;          //!< in-DRAM TRR present (all DDR4)
    unsigned counters = 4;        //!< Misra-Gries table size per bank
    double sampleProb = 0.25;     //!< per-ACT sampling probability
    std::uint32_t matchThreshold = 24; //!< count needed to trigger
    unsigned maxRefreshesPerTick = 2;  //!< TRR capacity per tREFI
    bool ptrr = false;            //!< BIOS "Rowhammer Prevention"
    double ptrrSampleProb = 4e-3; //!< pTRR per-ACT refresh probability
    std::uint64_t seed = 0x7272;  //!< sampling randomness seed
};

/** A row the mitigation decided to protect the neighbours of. */
struct TrrTarget
{
    std::uint32_t bank;
    std::uint64_t row;
};

/**
 * The sampler state machine. The owning Dimm feeds it ACTs and refresh
 * ticks; it returns aggressor rows whose neighbours must be refreshed.
 */
class TrrSampler
{
  public:
    TrrSampler(const TrrConfig &cfg, std::uint32_t num_banks);

    /**
     * Observe one row activation at simulated time `now`.
     *
     * @return a pTRR target needing an *immediate* neighbour refresh,
     *         if pTRR sampled this activation.
     */
    std::optional<TrrTarget> observeAct(std::uint32_t bank,
                                        std::uint64_t row, Ns now = 0.0);

    /**
     * Called once per tREFI: the device piggybacks targeted refreshes
     * on the regular refresh command.
     *
     * @return aggressor rows (up to maxRefreshesPerTick) whose
     *         neighbours the device refreshes now.
     */
    std::vector<TrrTarget> onRefreshTick(Ns now = 0.0);

    /** Number of targeted refreshes issued so far (statistics). */
    std::uint64_t targetedRefreshes() const { return issued; }

    /**
     * Whether any mitigation (TRR or pTRR) is configured. A passive
     * sampler draws no randomness and never selects a target, so
     * callers may skip observeAct entirely when this is false.
     */
    bool active() const { return cfg.enabled || cfg.ptrr; }

    /**
     * Restore the factory-fresh sampler: clears every per-bank table,
     * re-seeds the sampling randomness, and zeroes the issue counter,
     * so a reset sampler makes the same decisions as a new one.
     */
    void reset();

    /**
     * Attach a tracer for TrrSample/TrrEvict events (nullptr
     * detaches). Emission never consumes randomness, so tracing
     * cannot perturb the sampler's decisions.
     */
    void setTracer(Tracer *t) { tracer = t; }

  private:
    struct Entry
    {
        std::uint64_t row;
        std::uint32_t count;
    };

    /** Drop the entries of `bank` that `gone` selects, keeping order. */
    template <typename Pred> void compact(std::uint32_t bank, Pred gone);

    TrrConfig cfg;
    // Misra-Gries tables: bank b owns entries [b * counters, b *
    // counters + fill[b]) in insertion order.
    std::vector<Entry> entries;
    std::vector<std::uint32_t> fill;
    ReplayRng rng;
    std::uint64_t issued = 0;
    Tracer *tracer = nullptr;
};

} // namespace rho

#endif // RHO_DRAM_TRR_HH
