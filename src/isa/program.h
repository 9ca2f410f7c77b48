/**
 * @file
 * The accelerator's instruction set and program representation.
 *
 * CraterLake executes statically scheduled vector instructions on
 * residue polynomials (Sec 4.1). The compiler lowers homomorphic
 * operations to two instruction classes:
 *
 *  - simple ops: one FU, operands in the register file;
 *  - pipeline ops: chains of FUs (vector chaining, Sec 5.4) that
 *    implement a keyswitching phase end-to-end, touching the register
 *    file only at the chain's ends (Fig 8).
 *
 * Data is tracked as Values: polynomials (or groups of polynomials)
 * with a word footprint, a storage class (input, keyswitch hint,
 * plaintext, intermediate), and producer/consumer links that the
 * memory scheduler uses for Belady eviction.
 */

#ifndef CL_ISA_PROGRAM_H
#define CL_ISA_PROGRAM_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/common.h"
#include "util/inlinevec.h"

namespace cl {

/** Storage classes drive the traffic breakdown of Fig 10a. */
enum class ValueKind
{
    Input,        ///< Program input ciphertext (streamed from host).
    KeySwitchHint,///< KSH; the seeded half can come from KSHGen.
    Plaintext,    ///< Encoded weights/constants.
    Intermediate, ///< Produced and consumed on-chip (spills possible).
    Output        ///< Program result (streamed to host).
};

const char *valueKindName(ValueKind k);

/** homOp of a value or instruction that no homomorphic op produced
 *  (hand-built programs). */
constexpr std::uint32_t noHomOp = 0xffffffffu;

/**
 * Names are rendered on demand rather than stored: a value holding an
 * op's result records the op id and a static role ("raised", "acc"),
 * and valueName() composes "op12.raised". Only keyswitch hints and
 * plaintexts, which no single op owns, keep a composed name.
 */
struct Value
{
    std::uint32_t id = 0;
    ValueKind kind = ValueKind::Intermediate;
    std::uint64_t words = 0;    ///< Footprint in hardware words.
    std::int64_t producer = -1; ///< Instruction producing it (-1: live-in).
    std::vector<std::uint32_t> consumers; ///< Instruction ids, in order.

    std::uint32_t homOp = noHomOp; ///< Op whose result this holds.
    const char *role = "";         ///< Static role within that op.
    std::string name; ///< Hint/plaintext identity (`rot.1.t1#d1`, `w@l12`).

    /** For KSHs: fraction resident when KSHGen regenerates the
     *  pseudo-random half on the fly (Sec 5.2). */
    bool seededHalf = false;
};

/** The value's printed name: its hint/plaintext name, else
 *  "op<homOp>.<role>", else the bare role for hand-built values. */
std::string valueName(const Value &v);

/** Functional-unit classes (Table 2). */
enum class FuType : unsigned
{
    Ntt = 0,
    Automorphism,
    Multiply,
    Add,
    Crb,
    KshGen,
    Transpose, // bookkeeping for network occupancy
    NumTypes
};

constexpr unsigned numFuTypes = static_cast<unsigned>(FuType::NumTypes);

const char *fuTypeName(FuType t);

/** Occupancy of one FU class by an instruction. */
struct FuUse
{
    FuType type;
    unsigned units = 1;        ///< FU instances held for the duration.
    std::uint64_t laneOps = 0; ///< Scalar datapath ops (for energy).
};

/**
 * One vector (macro-)instruction. The compiler computes the issue
 * occupancy `duration` from the number of residue polynomials
 * streamed and the parallelism the configuration allows; a pipeline
 * op lists every FU class it occupies (vector chaining, Fig 8).
 */
struct PolyInst
{
    std::uint32_t id = 0;
    std::uint32_t homOp = noHomOp; ///< Source op id.
    const char *stage = "";        ///< Static stage, e.g. "ksw.modup".

    // Inline capacities: lowering emits at most 4 FU uses (the chained
    // mod-down: NTT, CRB, multiply, add), 2 reads and 1 write; the
    // third read slot is for hand-built programs.
    InlineVec<FuUse, 4> fus;
    InlineVec<std::uint32_t, 3> reads;  ///< Value ids read.
    InlineVec<std::uint32_t, 1> writes; ///< Value ids written.

    std::uint64_t duration = 1; ///< Issue-slot occupancy in cycles.
    std::size_t n = 0;          ///< Ring degree (vector length).

    /** Network words moved between lane groups (NTT/automorphism
     *  transposes, Sec 5.3): one transpose = N words. */
    std::uint64_t networkWords = 0;

    /** Register-file port-units occupied for the duration (reads +
     *  writes that actually touch the RF; chained intermediates
     *  don't, which is the point of Sec 5.4). */
    unsigned rfPorts = 2;

    /** Total RF words transferred (for RF energy accounting). */
    std::uint64_t rfWords = 0;
};

// Copying, reordering and regrowing instruction arrays is a memcpy.
static_assert(std::is_trivially_copyable_v<PolyInst>);

/** The instruction's printed name: "op<homOp>.<stage>", or the bare
 *  stage for hand-built instructions. */
std::string instName(const PolyInst &inst);

/** A straight-line accelerator program (FHE has no data-dependent
 *  control flow, Sec 2.1). */
struct Program
{
    std::string name;
    std::size_t n = 0; ///< Max ring degree used.
    std::vector<Value> values;
    std::vector<PolyInst> insts;

    /** @p role must have static storage duration. */
    std::uint32_t
    addValue(ValueKind kind, std::uint64_t words, const char *role = "",
             std::uint32_t hom_op = noHomOp)
    {
        Value v;
        v.id = static_cast<std::uint32_t>(values.size());
        v.kind = kind;
        v.words = words;
        v.homOp = hom_op;
        v.role = role;
        values.push_back(std::move(v));
        return values.back().id;
    }

    std::uint32_t
    addInst(PolyInst inst)
    {
        inst.id = static_cast<std::uint32_t>(insts.size());
        for (auto r : inst.reads) {
            CL_ASSERT(r < values.size(), "bad read value id");
            values[r].consumers.push_back(inst.id);
        }
        for (auto w : inst.writes) {
            CL_ASSERT(w < values.size(), "bad write value id");
            values[w].producer = inst.id;
        }
        insts.push_back(std::move(inst));
        return insts.back().id;
    }

    /** Total instruction count. */
    std::size_t size() const { return insts.size(); }

    /** Sanity-check the SSA-ish structure (each value written once,
     *  reads follow the producing instruction). */
    void validate() const;
};

} // namespace cl

#endif // CL_ISA_PROGRAM_H
