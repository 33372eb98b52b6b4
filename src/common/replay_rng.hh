/**
 * @file
 * Bit-exact fast replica of the simulator's std-library RNG stack.
 *
 * Rng (std::mt19937_64 + std::bernoulli_distribution /
 * std::uniform_int_distribution) is the simulator's semantic source of
 * randomness: the CPU's flush-jitter coin and obfuscated-branch draws,
 * the TRR sampler's coins and the per-row weak-cell field all feed
 * observable behaviour, so any faster path must consume the identical
 * value stream or it stops being bit-identical to the oracle. Those
 * draws are also expensive for reasons that have nothing to do with
 * the Mersenne twister itself: per-call distribution-object and
 * generate_canonical boilerplate, a branchy twist, and — for a
 * generator seeded only to make a handful of draws — 312 seeding
 * multiplies plus a full 312-word twist up front.
 *
 * ReplayRng removes the boilerplate, not the semantics. It holds a
 * mersenne_twister_engine state with the mt19937_64 parameters and
 * re-implements, against the installed libstdc++:
 *
 *  - operator(): block twist + tempering, word-for-word the standard
 *    algorithm (the output sequence is fixed by the C++ standard, not
 *    an implementation detail);
 *  - the seeding constructor: std::mt19937_64(seed)'s state, but the
 *    first block is seeded and twisted lazily, word by word in the
 *    standard's order. Twisted word k reads seed words k+1 and k+156
 *    (k < 156), or seed word k+1 and twisted word k-156, so an engine
 *    that makes n draws computes about 156+n words instead of 624;
 *  - generate_canonical<double, 53>: for a 64-bit engine the generic
 *    loop collapses to one draw, double(x) / 2^64, clamped to
 *    nextafter(1, 0) when the conversion rounds up to 1.0;
 *  - bernoulli_distribution: canonical < p (the standard's
 *    `(c - min) < p * (max - min)` with min 0 and max 1);
 *  - uniform_int_distribution<uint64_t>: Lemire's nearly divisionless
 *    downscaling over __uint128_t, exactly the libstdc++ _S_nd path
 *    taken whenever the engine range is 2^64.
 *
 * chance() additionally mirrors Rng::chance's p <= 0 / p >= 1
 * short-circuits, which consume no engine output. ReplayRng is also a
 * standard UniformRandomBitGenerator with mt19937_64's result_type,
 * min() and max(), so any std distribution run over it makes the same
 * draws and returns the same values as over std::mt19937_64.
 *
 * State moves between a ReplayRng and an Rng through the engine's
 * standard text serialization at run boundaries (313 integers, once
 * per SimCpu::run, amortized over every draw in the run), so reference
 * and blocked runs of the same SimCpu consume one continuous stream.
 * test_cpu_oracle pins raw-stream equality against std::mt19937_64
 * (seeded and imported), the std distributions over both engines, and
 * round-trips the state both ways; the golden traces pin the composed
 * behavior end to end.
 */

#ifndef RHO_COMMON_REPLAY_RNG_HH
#define RHO_COMMON_REPLAY_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace rho
{

class Rng;

/** Batched mt19937_64 + exact libstdc++ distribution replicas. */
class ReplayRng
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** A zero state; importFrom() gives it a stream. */
    ReplayRng() = default;

    /**
     * The std::mt19937_64(seed) stream. Only state[0] is seeded here;
     * the rest of the first block is seeded and twisted on demand.
     */
    explicit ReplayRng(std::uint64_t seed) : idx(0), avail(0), seeded(1)
    {
        state[0] = seed;
    }

    /** Copy the engine state out of an Rng (its next draw is ours). */
    void importFrom(const Rng &src);

    /** Write the engine state back into an Rng (our next draw is its). */
    void exportTo(Rng &dst) const;

    /** Raw engine output; the std::mt19937_64 sequence. */
    std::uint64_t
    next()
    {
        if (idx >= avail)
            refill();
        return temper(state[idx++]);
    }

    /** The UniformRandomBitGenerator call: next(). */
    result_type operator()() { return next(); }

    /** Exact replica of Rng::chance (incl. its draw-free edges). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return canonical() < p;
    }

    /**
     * The next raw draw, without consuming it. Pair with consumeIf():
     * a caller whose draw is gated on a random condition (the
     * obfuscated branch draws a target only when taken) can compute
     * the would-be value unconditionally and advance the stream by 0
     * or 1 — no host branch on random data. consumeIf(true) followed
     * by nothing is exactly next(); consumeIf(false) leaves the
     * stream untouched.
     */
    std::uint64_t
    peek()
    {
        if (idx >= avail)
            refill();
        return temper(state[idx]);
    }

    void consumeIf(bool take) { idx += take; }

    /** Exact replica of Rng::uniformInt: uniform in [lo, hi]. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uint64_t urange = hi - lo;
        if (urange == ~0ULL)
            return next(); // whole engine range: raw draw
        std::uint64_t uerange = urange + 1;
        unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * uerange;
        std::uint64_t low = static_cast<std::uint64_t>(product);
        if (low < uerange) {
            std::uint64_t threshold = (0 - uerange) % uerange;
            while (low < threshold) {
                product = static_cast<unsigned __int128>(next()) * uerange;
                low = static_cast<std::uint64_t>(product);
            }
        }
        return lo + static_cast<std::uint64_t>(product >> 64);
    }

  private:
    static std::uint64_t
    temper(std::uint64_t z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

    /**
     * Round-to-nearest uint64 -> double without the compiler's
     * sign-test branch. x86-64 has no unsigned conversion before
     * AVX-512, so `double(x)` compiles to a branch on bit 63 — which
     * is random engine output here and mispredicts half the time,
     * costing more than the rest of the draw combined. Splitting into
     * two exactly-representable halves (hi * 2^32 is exact, lo is
     * exact) sums to mathematical x and rounds exactly once, so the
     * result is bit-identical to the direct conversion.
     */
    static double
    toDouble(std::uint64_t x)
    {
        double hi = static_cast<double>(
            static_cast<std::int64_t>(x >> 32));
        double lo = static_cast<double>(
            static_cast<std::int64_t>(x & 0xffffffffULL));
        return hi * 0x1p32 + lo;
    }

    /** std::generate_canonical<double, 53, mt19937_64>. */
    double
    canonical()
    {
        double ret = toDouble(next()) * 0x1p-64;
        // double(x) rounds up to 2^64 for the top ~2^10 inputs; the
        // standard clamps the quotient below 1.0.
        if (ret >= 1.0) [[unlikely]]
            ret = std::nextafter(1.0, 0.0);
        return ret;
    }

    /** Slow path of next()/peek(): extend the lazy block or twist. */
    void refill();
    /** Seed and twist the lazy first block up to word `end`. */
    void extendFirstBlock(std::size_t end);
    /** Twist the whole block and restart reading it. */
    void twist();

    static constexpr std::size_t kN = 312;

    // Words [0, avail) of the current block are twisted and readable;
    // idx is the next one to read. While the first block of a seeded
    // engine is still lazy, avail < kN, slots [avail, seeded) hold
    // seed words and the slots past them are not yet seeded.
    std::uint64_t state[kN] = {};
    std::size_t idx = kN;
    std::size_t avail = kN;
    std::size_t seeded = kN;
};

} // namespace rho

#endif // RHO_COMMON_REPLAY_RNG_HH
