#include "common/rng.hh"

#include <algorithm>

namespace rho
{

namespace
{

// mt19937_64 parameters (std _M_gen_rand / seed): n 312, m 156, r 31,
// a 0xb5026f5aa96619e9, f 6364136223846793005.
constexpr std::size_t kM = 156;
constexpr std::uint64_t kUpper = ~std::uint64_t(0) << 31;
constexpr std::uint64_t kLower = ~kUpper;
constexpr std::uint64_t kA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kF = 6364136223846793005ULL;

// One twisted word from its three inputs. One deliberate difference
// from the std code: the conditional xor of `a` is a mask (-(y & 1) is
// all-ones iff y is odd), not a branch — the low bit is random, so the
// std `?:` form mispredicts every other word of the 312-word block.
inline std::uint64_t
twistWord(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
{
    std::uint64_t y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kA);
}

// A lazily seeded engine twists this many words per slow-path call, so
// a short-lived generator (one weak-cell row, ~16 draws) takes the
// slow path once.
constexpr std::size_t kLazyChunk = 16;

} // namespace

void
Rng::refill()
{
    if (avail < kN)
        extendFirstBlock(std::min(kN, avail + kLazyChunk));
    else
        twist();
}

// Twisted word k of the first block reads slots k, k+1 and k+m. For
// k < n-m all three still hold seed words; past that, slot k+m-n was
// twisted earlier and slot 0 (read by k = n-1) too — the same in-place
// order as the std loop. Seeding runs ahead of twisting by m words,
// and slot s-1 still holds its seed word when seed word s is computed
// from it.
void
Rng::extendFirstBlock(std::size_t end)
{
    std::size_t seed_end = std::min(kN, end + kM);
    for (; seeded < seed_end; ++seeded) {
        std::uint64_t prev = state[seeded - 1];
        state[seeded] = kF * (prev ^ (prev >> 62)) + seeded;
    }
    for (std::size_t k = avail; k < end; ++k) {
        std::uint64_t next = k + 1 < kN ? state[k + 1] : state[0];
        std::uint64_t far = k < kN - kM ? state[k + kM] : state[k + kM - kN];
        state[k] = twistWord(state[k], next, far);
    }
    avail = end;
}

void
Rng::twist()
{
    for (std::size_t k = 0; k < kN - kM; ++k)
        state[k] = twistWord(state[k], state[k + 1], state[k + kM]);
    for (std::size_t k = kN - kM; k < kN - 1; ++k)
        state[k] = twistWord(state[k], state[k + 1], state[k + kM - kN]);
    state[kN - 1] = twistWord(state[kN - 1], state[0], state[kM - 1]);
    idx = 0;
}

} // namespace rho
