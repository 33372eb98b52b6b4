#include "mapping/mapping_family.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace rho
{

MappingFamily::MappingFamily(unsigned phys_bits,
                             std::vector<std::uint64_t> bank_fn_masks,
                             std::vector<unsigned> row_bits,
                             std::vector<unsigned> col_bits)
    : nPhysBits(phys_bits), bankFns(std::move(bank_fn_masks)),
      rowBits(std::move(row_bits)), colBits(std::move(col_bits))
{
    if (phys_bits > 63)
        fatal("MappingFamily: phys_bits %u too large", phys_bits);
    std::sort(rowBits.begin(), rowBits.end());
    std::sort(colBits.begin(), colBits.end());

    unsigned total = bankFns.size() + rowBits.size() + colBits.size();
    if (total != nPhysBits) {
        fatal("MappingFamily: %zu bank fns + %zu row + %zu col bits "
              "!= %u phys bits",
              bankFns.size(), rowBits.size(), colBits.size(), nPhysBits);
    }

    // Build the linear system once: rows ordered bank fns, row bits,
    // col bits; coreEncode() solves it for arbitrary right-hand sides.
    Gf2Matrix m(nPhysBits);
    for (std::uint64_t fn : bankFns)
        m.addRow(fn);
    for (unsigned b : rowBits)
        m.addRow(1ULL << b);
    for (unsigned b : colBits)
        m.addRow(1ULL << b);
    solver = std::make_shared<Gf2Solver>(m);
    bijective = solver->fullRank();

    // Image of each single address bit, packed bank|row|col with the
    // column in the low bits. The table needs only the bytes some
    // function or position reads.
    for (const auto *bits : {&rowBits, &colBits}) {
        if (!bits->empty() && bits->back() > 63)
            fatal("MappingFamily: bit position %u out of range",
                  bits->back());
    }
    std::uint64_t bit_image[64] = {};
    rowShift = colBits.size();
    bankShift = colBits.size() + rowBits.size();
    for (std::size_t i = 0; i < colBits.size(); ++i)
        bit_image[colBits[i]] |= 1ULL << i;
    for (std::size_t i = 0; i < rowBits.size(); ++i)
        bit_image[rowBits[i]] |= 1ULL << (rowShift + i);
    for (std::size_t i = 0; i < bankFns.size(); ++i) {
        for (std::uint64_t m = bankFns[i]; m; m &= m - 1)
            bit_image[std::countr_zero(m)] |= 1ULL << (bankShift + i);
    }
    rowMask = (1ULL << rowBits.size()) - 1;
    colMask = (1ULL << colBits.size()) - 1;
    for (unsigned b = 0; b < 64; ++b) {
        if (bit_image[b])
            nDecodeBytes = b / 8 + 1;
    }

    // Linearity: the images of the byte values in [2^j, 2^(j+1)) are
    // those of [0, 2^j), each XOR bit j's image.
    decodeTable.resize(std::size_t(nDecodeBytes) * 256);
    for (unsigned i = 0; i < nDecodeBytes; ++i) {
        std::uint64_t *t = &decodeTable[i * 256];
        t[0] = 0;
        for (unsigned j = 0; j < 8; ++j) {
            std::uint64_t img = bit_image[8 * i + j];
            for (unsigned v = 0; v < (1u << j); ++v)
                t[(1u << j) + v] = t[v] ^ img;
        }
    }
}

PhysAddr
MappingFamily::coreEncode(const DramAddr &da) const
{
    std::uint64_t rhs = 0;
    unsigned pos = 0;
    for (std::size_t i = 0; i < bankFns.size(); ++i, ++pos)
        rhs |= bit(da.bank, i) << pos;
    for (std::size_t i = 0; i < rowBits.size(); ++i, ++pos)
        rhs |= bit(da.row, i) << pos;
    for (std::size_t i = 0; i < colBits.size(); ++i, ++pos)
        rhs |= bit(da.col, i) << pos;

    auto sol = solver->solve(rhs);
    if (!sol)
        panic("MappingFamily::encode: unsolvable (core not bijective)");
    return *sol;
}

std::string
MappingFamily::describe() const
{
    std::string out = "Bank Func:";
    for (std::size_t i = 0; i < bankFns.size(); ++i) {
        out += i ? ", (" : " (";
        auto bits = bitsOfMask(bankFns[i]);
        for (std::size_t j = 0; j < bits.size(); ++j) {
            if (j)
                out += ", ";
            out += std::to_string(bits[j]);
        }
        out += ")";
    }
    if (!rowBits.empty()) {
        out += strFormat("; Row: %u-%u", rowBits.front(), rowBits.back());
    }
    if (regionOffset() != 0)
        out += strFormat("; Offset: 0x%llx",
                         static_cast<unsigned long long>(regionOffset()));
    return out;
}

ZenOffsetFamily::ZenOffsetFamily(unsigned phys_bits,
                                 std::uint64_t region_offset,
                                 std::vector<std::uint64_t> bank_fn_masks,
                                 std::vector<unsigned> row_bits,
                                 std::vector<unsigned> col_bits)
    : MappingFamily(phys_bits, std::move(bank_fn_masks),
                    std::move(row_bits), std::move(col_bits)),
      offset(region_offset), addrMask((1ULL << phys_bits) - 1)
{
    if (region_offset >= (1ULL << phys_bits))
        fatal("ZenOffsetFamily: offset 0x%llx outside %u-bit space",
              static_cast<unsigned long long>(region_offset), phys_bits);
    // An offset with a single set bit degenerates to XOR with that bit
    // for half the space and is better modelled as a linear function;
    // real Zen region bases are sums of DIMM capacities (>= 2 bits).
    if (region_offset != 0 && (region_offset & (region_offset - 1)) == 0)
        fatal("ZenOffsetFamily: single-bit offset is linear; use "
              "LinearGf2Family");
}

} // namespace rho
