/**
 * @file
 * The campaign runner's field-list record codec against the
 * hand-written codecs it replaced: every "sweep3", "fuzz4" and
 * "evofuzz1" payload must stay byte-identical, so journals written
 * before the runner existed still resume.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/checkpoint.hh"
#include "common/rng.hh"
#include "hammer/pattern_fuzzer.hh"
#include "hammer/sweep.hh"

using namespace rho;

namespace
{

// Copies of the per-engine codecs the runner replaced, kept verbatim
// as the reference for the payload format.

std::string
oldSweepEncode(const SweepRecord &r)
{
    std::ostringstream out;
    out << r.flips << " " << encodeDouble(r.simTimeNs) << " "
        << r.flipList.size();
    for (const FlipRecord &f : r.flipList) {
        out << " " << f.bank << " " << f.row << " " << f.bitOffset << " "
            << (f.toOne ? 1 : 0) << " " << encodeDouble(f.when);
    }
    out << " " << r.device.acts << " " << r.device.trrRefreshes << " "
        << r.device.rfmCommands << " " << r.device.pracAlerts << " "
        << r.dramAccesses;
    return out.str();
}

std::optional<SweepRecord>
oldSweepParse(const std::string &payload)
{
    std::istringstream in(payload);
    SweepRecord r;
    std::string sim_hex;
    std::size_t n = 0;
    if (!(in >> r.flips >> sim_hex >> n))
        return std::nullopt;
    auto sim = decodeDouble(sim_hex);
    if (!sim)
        return std::nullopt;
    r.simTimeNs = *sim;
    r.flipList.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        FlipRecord f{};
        int to_one = 0;
        std::string when_hex;
        if (!(in >> f.bank >> f.row >> f.bitOffset >> to_one >> when_hex))
            return std::nullopt;
        auto when = decodeDouble(when_hex);
        if (!when)
            return std::nullopt;
        f.toOne = to_one != 0;
        f.when = *when;
        r.flipList.push_back(f);
    }
    if (!(in >> r.device.acts >> r.device.trrRefreshes
          >> r.device.rfmCommands >> r.device.pracAlerts >> r.dramAccesses))
        return std::nullopt;
    return r;
}

/** The "fuzz4" codec; "evofuzz1" wrote and read the same bytes. */
std::string
oldTrialEncode(const TrialRecord &r)
{
    std::ostringstream out;
    out << r.flips << " " << r.dramAccesses << " "
        << encodeDouble(r.simTimeNs) << " " << r.device.acts << " "
        << r.device.trrRefreshes << " " << r.device.rfmCommands << " "
        << r.device.pracAlerts << " " << r.unplaceable;
    return out.str();
}

bool
oldTrialParse(const std::string &payload, TrialRecord &r)
{
    std::istringstream in(payload);
    std::string sim_hex;
    if (!(in >> r.flips >> r.dramAccesses >> sim_hex >> r.device.acts
          >> r.device.trrRefreshes >> r.device.rfmCommands
          >> r.device.pracAlerts >> r.unplaceable))
        return false;
    auto sim = decodeDouble(sim_hex);
    if (!sim)
        return false;
    r.simTimeNs = *sim;
    return true;
}

/** A double from a pool of edge cases or from random bits. */
double
edgyDouble(Rng &rng)
{
    switch (rng.uniformInt(0, 7)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::denorm_min();
    case 3: return -4.9e-320; // another subnormal
    case 4: return std::numeric_limits<double>::infinity();
    case 5: return 0.0;
    default: return std::bit_cast<double>(rng.raw());
    }
}

std::uint64_t
anyU64(Rng &rng)
{
    // Mix small counters with full-width values.
    return rng.chance(0.5) ? rng.uniformInt(0, 1000) : rng.raw();
}

SweepRecord
randomSweepRecord(Rng &rng, unsigned flips)
{
    SweepRecord r;
    r.flips = anyU64(rng);
    r.simTimeNs = edgyDouble(rng);
    for (unsigned i = 0; i < flips; ++i) {
        FlipRecord f{};
        f.bank = static_cast<std::uint32_t>(rng.raw());
        f.row = anyU64(rng);
        f.bitOffset = static_cast<std::uint32_t>(rng.uniformInt(0, 65535));
        f.toOne = rng.chance(0.5);
        f.when = edgyDouble(rng);
        r.flipList.push_back(f);
    }
    r.device = {anyU64(rng), anyU64(rng), anyU64(rng), anyU64(rng)};
    r.dramAccesses = anyU64(rng);
    return r;
}

TrialRecord
randomTrialRecord(Rng &rng)
{
    TrialRecord r;
    r.flips = anyU64(rng);
    r.dramAccesses = anyU64(rng);
    r.simTimeNs = edgyDouble(rng);
    r.device = {anyU64(rng), anyU64(rng), anyU64(rng), anyU64(rng)};
    r.unplaceable = static_cast<unsigned>(rng.uniformInt(0, 1));
    return r;
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectSameDevice(const DeviceTotals &a, const DeviceTotals &b)
{
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.trrRefreshes, b.trrRefreshes);
    EXPECT_EQ(a.rfmCommands, b.rfmCommands);
    EXPECT_EQ(a.pracAlerts, b.pracAlerts);
}

void
expectSameSweep(const SweepRecord &a, const SweepRecord &b)
{
    EXPECT_EQ(a.flips, b.flips);
    EXPECT_EQ(bits(a.simTimeNs), bits(b.simTimeNs));
    ASSERT_EQ(a.flipList.size(), b.flipList.size());
    for (std::size_t i = 0; i < a.flipList.size(); ++i) {
        EXPECT_EQ(a.flipList[i].bank, b.flipList[i].bank);
        EXPECT_EQ(a.flipList[i].row, b.flipList[i].row);
        EXPECT_EQ(a.flipList[i].bitOffset, b.flipList[i].bitOffset);
        EXPECT_EQ(a.flipList[i].toOne, b.flipList[i].toOne);
        EXPECT_EQ(bits(a.flipList[i].when), bits(b.flipList[i].when));
    }
    expectSameDevice(a.device, b.device);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
}

void
expectSameTrial(const TrialRecord &a, const TrialRecord &b)
{
    EXPECT_EQ(a.flips, b.flips);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(bits(a.simTimeNs), bits(b.simTimeNs));
    expectSameDevice(a.device, b.device);
    EXPECT_EQ(a.unplaceable, b.unplaceable);
}

} // namespace

TEST(RecordCodec, SweepPayloadsMatchTheOldCodec)
{
    Rng rng(0x5eeb3);
    for (unsigned round = 0; round < 400; ++round) {
        SweepRecord r = randomSweepRecord(rng, round % 9);
        std::string payload = encodeRecord(r);
        ASSERT_EQ(payload, oldSweepEncode(r)) << "round " << round;

        auto ours = decodeRecord<SweepRecord>(payload);
        auto theirs = oldSweepParse(payload);
        ASSERT_TRUE(ours.has_value()) << payload;
        ASSERT_TRUE(theirs.has_value()) << payload;
        expectSameSweep(*ours, r);
        expectSameSweep(*theirs, r);
    }
}

TEST(RecordCodec, TrialPayloadsMatchTheOldCodec)
{
    Rng rng(0xf022);
    for (unsigned round = 0; round < 400; ++round) {
        TrialRecord r = randomTrialRecord(rng);
        std::string payload = encodeRecord(r);
        ASSERT_EQ(payload, oldTrialEncode(r)) << "round " << round;

        auto ours = decodeRecord<TrialRecord>(payload);
        TrialRecord theirs;
        ASSERT_TRUE(ours.has_value()) << payload;
        ASSERT_TRUE(oldTrialParse(payload, theirs)) << payload;
        expectSameTrial(*ours, r);
        expectSameTrial(theirs, r);
    }
}

TEST(RecordCodec, LiteralPayloadPerKind)
{
    // sweep3: flips, sim time, flip count + flips, device totals, DRAM
    // accesses.
    SweepRecord sweep;
    sweep.flips = 2;
    sweep.simTimeNs = 1.5;
    sweep.flipList = {{3, 4097, 511, true, 250.0},
                      {7, 12, 0, false, -0.0}};
    sweep.device = {1000, 2, 0, 1};
    sweep.dramAccesses = 999;
    EXPECT_EQ(encodeRecord(sweep),
              "2 3ff8000000000000 2 3 4097 511 1 406f400000000000 7 12 0 "
              "0 8000000000000000 1000 2 0 1 999");
    expectSameSweep(*decodeRecord<SweepRecord>(encodeRecord(sweep)), sweep);

    // sweep3 with an empty flip list.
    SweepRecord quiet;
    quiet.simTimeNs = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(encodeRecord(quiet), "0 0000000000000001 0 0 0 0 0 0");

    // fuzz4: flips, DRAM accesses, sim time, device totals,
    // unplaceable. The service workload reads field 4 as ACTs.
    TrialRecord fuzz;
    fuzz.flips = 5;
    fuzz.dramAccesses = 60000;
    fuzz.simTimeNs = 2.0;
    fuzz.device = {41234, 17, 3, 0};
    EXPECT_EQ(encodeRecord(fuzz),
              "5 60000 4000000000000000 41234 17 3 0 0");

    // evofuzz1: the same layout; an unplaceable NaN-timed trial.
    TrialRecord evo;
    evo.simTimeNs = std::numeric_limits<double>::quiet_NaN();
    evo.unplaceable = 1;
    EXPECT_EQ(encodeRecord(evo), "0 0 7ff8000000000000 0 0 0 0 1");
    expectSameTrial(*decodeRecord<TrialRecord>("0 0 7ff8000000000000 0 0 0 "
                                               "0 1"),
                    evo);
}

TEST(RecordCodec, MalformedPayloadsAreRejected)
{
    const std::string good = "5 60000 4000000000000000 41234 17 3 0 0";
    ASSERT_TRUE(decodeRecord<TrialRecord>(good).has_value());
    for (const char *bad : {
             "",
             "5 60000 4000000000000000 41234 17 3 0",   // short
             "5 60000 4000000000000000 41234 17 3 0 0 9", // trailing
             "5 60000 4000000000000000 41234 17 3 0 x", // not a number
             "5 60000 40000000000000 41234 17 3 0 0",   // short hex
             "5 60000 400000000000000G 41234 17 3 0 0", // bad hex
             "-5 60000 4000000000000000 41234 17 3 0 0", // sign
             "5 99999999999999999999 4000000000000000 1 1 1 1 1", // range
         }) {
        EXPECT_FALSE(decodeRecord<TrialRecord>(bad).has_value()) << bad;
    }
    // A flip count larger than the payload could hold.
    EXPECT_FALSE(decodeRecord<SweepRecord>(
                     "1 3ff8000000000000 4000000000 1 2 3 1")
                     .has_value());
    // A flip list cut short.
    EXPECT_FALSE(decodeRecord<SweepRecord>(
                     "1 3ff8000000000000 2 1 2 3 1 3ff8000000000000 1 1 "
                     "1 1 1")
                     .has_value());
}
