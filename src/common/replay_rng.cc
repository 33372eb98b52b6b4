#include "common/replay_rng.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

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
ReplayRng::refill()
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
ReplayRng::extendFirstBlock(std::size_t end)
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
ReplayRng::twist()
{
    for (std::size_t k = 0; k < kN - kM; ++k)
        state[k] = twistWord(state[k], state[k + 1], state[k + kM]);
    for (std::size_t k = kN - kM; k < kN - 1; ++k)
        state[k] = twistWord(state[k], state[k + 1], state[k + kM - kN]);
    state[kN - 1] = twistWord(state[kN - 1], state[0], state[kM - 1]);
    idx = 0;
}

// The standard text serialization of mersenne_twister_engine is the 312
// state words followed by the read position, space-separated. Parsing
// it is the one portable way to move state in and out of a
// std::mt19937_64; it runs once per SimCpu::run.

void
ReplayRng::importFrom(const Rng &src)
{
    std::istringstream in(src.saveEngineState());
    for (std::size_t i = 0; i < kN; ++i)
        in >> state[i];
    in >> idx;
    if (!in || idx > kN)
        fatal("ReplayRng::importFrom: malformed engine state");
    avail = seeded = kN;
}

// A lazy first block is finished on a copy first: the twisted block
// read from position idx continues exactly the stream this engine
// would have drawn.
void
ReplayRng::exportTo(Rng &dst) const
{
    if (avail < kN) {
        ReplayRng full = *this;
        full.extendFirstBlock(kN);
        full.exportTo(dst);
        return;
    }
    std::ostringstream out;
    for (std::size_t i = 0; i < kN; ++i)
        out << state[i] << ' ';
    out << idx;
    dst.loadEngineState(out.str());
}

} // namespace rho
