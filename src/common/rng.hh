/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator draws from an explicitly
 * seeded Rng so that all experiments are exactly reproducible. The
 * splitMix64 hash is also exposed for "stateless" randomness, e.g. the
 * per-row weak-cell profiles that must be recomputable from (seed, row).
 */

#ifndef RHO_COMMON_RNG_HH
#define RHO_COMMON_RNG_HH

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace rho
{

/** Mix a 64-bit value into a well-distributed 64-bit hash (splitmix64). */
constexpr std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine hash values (order-sensitive). */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return splitMix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/**
 * Seeded pseudo-random source with the distribution helpers the
 * simulator needs. Thin wrapper around std::mt19937_64.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine(seed) {}

    /** Uniform integer in [lo, hi] (inclusive). */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return std::bernoulli_distribution(p)(engine);
    }

    /** Normal distribution sample. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine);
    }

    /** Log-normal distribution sample (of the underlying normal). */
    double
    logNormal(double logMean, double logSigma)
    {
        return std::lognormal_distribution<double>(logMean, logSigma)(engine);
    }

    /** Poisson distribution sample. */
    std::uint64_t
    poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        return std::poisson_distribution<std::uint64_t>(mean)(engine);
    }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[uniformInt(0, v.size() - 1)];
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(0, i - 1);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for sub-components). */
    Rng
    fork()
    {
        return Rng(engine());
    }

    /** Raw 64-bit draw. */
    std::uint64_t raw() { return engine(); }

    /**
     * Engine state in the standard mersenne_twister_engine text
     * serialization (312 state words + read position). Lets an exact
     * engine replica (common/replay_rng.hh) take over the stream and hand
     * it back without disturbing it.
     */
    std::string saveEngineState() const;
    void loadEngineState(const std::string &text);

  private:
    std::mt19937_64 engine;
};

} // namespace rho

#endif // RHO_COMMON_RNG_HH
