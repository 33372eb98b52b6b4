#include "dram/trr.hh"

#include <algorithm>

namespace rho
{

TrrSampler::TrrSampler(const TrrConfig &cfg_, std::uint32_t num_banks)
    : cfg(cfg_), entries(std::size_t(num_banks) * cfg_.counters),
      fill(num_banks, 0), rng(cfg_.seed)
{
}

void
TrrSampler::reset()
{
    std::fill(fill.begin(), fill.end(), 0);
    rng = Rng(cfg.seed);
    issued = 0;
}

template <typename Pred>
void
TrrSampler::compact(std::uint32_t bank, Pred gone)
{
    Entry *table = entries.data() + std::size_t(bank) * cfg.counters;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < fill[bank]; ++i) {
        if (!gone(table[i]))
            table[kept++] = table[i];
    }
    fill[bank] = kept;
}

std::optional<TrrTarget>
TrrSampler::observeAct(std::uint32_t bank, std::uint64_t row, Ns now)
{
    (void)now; // only read when tracing is compiled in
    std::optional<TrrTarget> ptrr_hit;
    if (cfg.ptrr && rng.chance(cfg.ptrrSampleProb)) {
        ++issued;
        ptrr_hit = TrrTarget{bank, row};
    }

    if (!cfg.enabled)
        return ptrr_hit;
    if (!rng.chance(cfg.sampleProb))
        return ptrr_hit;

    Entry *table = entries.data() + std::size_t(bank) * cfg.counters;
    std::uint32_t &n = fill[bank];
    for (std::uint32_t i = 0; i < n; ++i) {
        if (table[i].row == row) {
            ++table[i].count;
            RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row,
                      table[i].count);
            return ptrr_hit;
        }
    }
    if (n < cfg.counters) {
        table[n++] = {row, 1};
        RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row, 1);
        return ptrr_hit;
    }
    // Misra-Gries: a non-resident sample decrements every counter.
    // This is the churn non-uniform patterns exploit: enough distinct
    // decoy rows keep true aggressor counts pinned near zero.
    RHO_TRACE(tracer, now, EventKind::TrrSample, 0, bank, row, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (table[i].count > 0)
            --table[i].count;
    }
    compact(bank, [&](const Entry &e) {
        if (e.count != 0)
            return false;
        RHO_TRACE(tracer, now, EventKind::TrrEvict, 0, bank, e.row, 0);
        return true;
    });
    return ptrr_hit;
}

std::vector<TrrTarget>
TrrSampler::onRefreshTick(Ns now)
{
    (void)now;
    std::vector<TrrTarget> out;
    if (!cfg.enabled)
        return out;

    // Gather rows over threshold across banks, strongest first.
    // Candidates are gathered bank by bank in table order, so the
    // (unstable) sort sees the same sequence as it always has.
    struct Cand { std::uint32_t bank; std::uint64_t row; std::uint32_t cnt; };
    std::vector<Cand> cands;
    for (std::uint32_t b = 0; b < fill.size(); ++b) {
        const Entry *table = entries.data() + std::size_t(b) * cfg.counters;
        for (std::uint32_t i = 0; i < fill[b]; ++i) {
            if (table[i].count >= cfg.matchThreshold)
                cands.push_back({b, table[i].row, table[i].count});
        }
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand &a, const Cand &b) { return a.cnt > b.cnt; });

    for (const auto &c : cands) {
        if (out.size() >= cfg.maxRefreshesPerTick)
            break;
        out.push_back({c.bank, c.row});
    }
    for (const TrrTarget &t : out) {
        compact(t.bank,
                [row = t.row](const Entry &e) { return e.row == row; });
    }
    issued += out.size();
    return out;
}

} // namespace rho
