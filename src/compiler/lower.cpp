#include "lower.h"

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <unordered_map>

namespace cl {

namespace {

constexpr std::uint32_t noValue = std::uint32_t(-1);

/** Value ids keyed by (interned identity, small integer), each row
 *  grown on demand. */
class DenseCache
{
  public:
    explicit DenseCache(std::size_t ids) : rows_(ids) {}

    std::uint32_t &
    at(std::uint32_t id, unsigned sub)
    {
        std::vector<std::uint32_t> &row = rows_[id];
        if (row.size() <= sub)
            row.resize(sub + 1, noValue);
        return row[sub];
    }

  private:
    std::vector<std::vector<std::uint32_t>> rows_;
};

/** One FU class's share of an instruction: the units it holds and
 *  its residue vectors of work. */
struct Work
{
    FuType type;
    unsigned units;
    std::uint64_t vecs;
};

} // namespace

Program
Lowering::lower(const HomProgram &hp)
{
    stats_ = LowerStats{};
    schedStats_ = ScheduleStats{};

    Program prog;
    prog.name = hp.name;
    prog.n = hp.n();
    const std::size_t n = hp.n();
    const std::uint64_t vc = cfg_.vectorCycles(n);
    const unsigned logn = log2Exact(n);
    const std::uint64_t bflyPerVec =
        static_cast<std::uint64_t>(n) * logn / 2;

    // Map from hom-op id to the value holding its result ciphertext.
    std::vector<std::uint32_t> valueOf(hp.ops.size(), noValue);

    // One pass over the ops before emitting anything:
    //  - intern each distinct hint and plaintext identity to a dense
    //    index (per op id), so the operand caches below are keyed by
    //    integers. Hints are generated once per key at the highest
    //    level the key is used at; lower-level keyswitches read a
    //    slice.
    //  - bound the instructions and values each op emits, so the
    //    program's arrays are allocated once instead of regrown
    //    (reserved capacity is never touched, so it costs no memory).
    std::vector<std::uint32_t> keyOf(hp.ops.size(), noValue);
    std::vector<std::uint32_t> plainOf(hp.ops.size(), noValue);
    std::vector<unsigned> kshMaxLevel;
    std::unordered_map<std::string_view, std::uint32_t> plains;
    {
        std::unordered_map<std::string_view, std::uint32_t> keys;
        // A keyswitch emits mod-up (1, or up to 3 stages unchained),
        // the hint MAC and mod-down; plus raised and acc values and
        // possibly its hint.
        const std::size_t ksw_insts =
            cfg_.hasCrb && cfg_.hasChaining ? 3 : 5;
        std::size_t insts = 0, values = 0;
        for (const HomOp &op : hp.ops) {
            if (!op.keyId.empty()) {
                const auto [it, fresh] = keys.try_emplace(
                    op.keyId, static_cast<std::uint32_t>(keys.size()));
                if (fresh)
                    kshMaxLevel.push_back(op.level);
                else
                    kshMaxLevel[it->second] =
                        std::max(kshMaxLevel[it->second], op.level);
                keyOf[op.id] = it->second;
                insts += ksw_insts;
                values += 3;
            }
            if (!op.plainId.empty()) {
                plainOf[op.id] =
                    plains
                        .try_emplace(op.plainId,
                                     static_cast<std::uint32_t>(
                                         plains.size()))
                        .first->second;
                ++values;
            }
            // The op's own instructions and result values.
            switch (op.kind) {
              case HomOpKind::Input:
                values += 1;
                break;
              case HomOpKind::Mul: // tensor, relin, rescaled out
                insts += 2;
                values += 3;
                break;
              case HomOpKind::Rotate: // automorphism, rotated, out
              case HomOpKind::Conjugate:
                insts += 1;
                values += 2;
                break;
              default:
                insts += 1;
                values += 1;
                break;
            }
        }
        prog.insts.reserve(insts);
        prog.values.reserve(values);
    }
    // Reusable operands: hints by (key, digit count), plaintexts by
    // (identity, level).
    DenseCache kshCache(kshMaxLevel.size());
    DenseCache plainCache(plains.size());

    // A ciphertext at l towers is 2l residue vectors.
    auto ct_vecs = [](unsigned l) { return 2ull * l; };
    auto ct_words = [&](unsigned l) { return ct_vecs(l) * n; };

    auto clamp_ports = [&](unsigned p) {
        return std::min(p, cfg_.rfPorts);
    };

    // Units of a class an instruction can actually use (bounded by
    // the work available).
    auto par = [&](unsigned units, std::uint64_t vecs) -> unsigned {
        return std::max<unsigned>(
            1, static_cast<unsigned>(
                   std::min<std::uint64_t>(units, vecs)));
    };

    auto get_ksh = [&](const HomOp &op, unsigned t) -> std::uint32_t {
        // One hint per key identity *and digit count*, generated at
        // the top of the chain; lower levels read a slice of it. This
        // is what lets the compiler's ordering reuse hints on chip
        // (Sec 6). Keyswitches under the same key but a different
        // digit count need differently shaped hints — caching on the
        // key alone would silently reuse the first call's size.
        const std::uint32_t key = keyOf[op.id];
        CL_ASSERT(key != noValue, "op ", op.id,
                  " keyswitches without a key id");
        const unsigned lk = kshMaxLevel[key];
        const unsigned tk = std::min(t, lk);
        // lk towers in digits of ceil(lk / tk) towers (the last one
        // may be short) make ceil(lk / alpha) digits, which can be
        // fewer than tk.
        const opcost::KeySwitch hint = opcost::keySwitch(
            lk, static_cast<unsigned>(ceilDiv(lk, tk)), n);
        std::uint32_t &slot = kshCache.at(key, hint.dnum);
        if (slot != noValue)
            return slot;
        // Full hint: dnum pairs over ext moduli. With KSHGen, only
        // the b-halves are stored/loaded (Sec 5.2).
        std::uint64_t words = hint.hintWords;
        if (cfg_.hasKshGen)
            words /= 2;
        slot = prog.addValue(ValueKind::KeySwitchHint, words);
        Value &v = prog.values[slot];
        v.name = op.keyId + "#d" + std::to_string(hint.dnum);
        v.seededHalf = cfg_.hasKshGen;
        return slot;
    };

    auto get_plain = [&](const HomOp &op, unsigned l) -> std::uint32_t {
        std::uint32_t &slot = plainCache.at(plainOf[op.id], l);
        if (slot != noValue)
            return slot;
        slot = prog.addValue(ValueKind::Plaintext,
                             static_cast<std::uint64_t>(l) * n);
        prog.values[slot].name = op.plainId + "@l" + std::to_string(l);
        return slot;
    };

    /**
     * Emit one instruction of op @p hom_op's @p stage (a static
     * string) writing @p write. Each work item holds its units for
     * ceilDiv(vecs, units) vector slots and the slowest sets the
     * duration; the CRB and KSHGen keep pace with the chain
     * (@p min_slots covers the CRB's own stream). An NTT vector is
     * n·logN/2 butterflies and one transpose over the network, an
     * automorphism vector two transposes.
     */
    auto emit = [&](std::uint32_t hom_op, const char *stage,
                    std::initializer_list<Work> work,
                    std::initializer_list<std::uint32_t> reads,
                    std::uint32_t write,
                    unsigned ports, std::uint64_t rf_words,
                    std::uint64_t min_slots = 0) {
        PolyInst inst;
        inst.homOp = hom_op;
        inst.stage = stage;
        inst.n = n;
        std::uint64_t slots = min_slots;
        for (const Work &w : work) {
            const bool ntt = w.type == FuType::Ntt;
            inst.fus.push_back(
                {w.type, w.units, w.vecs * (ntt ? bflyPerVec : n)});
            if (ntt || w.type == FuType::Automorphism)
                inst.networkWords += w.vecs * n * (ntt ? 1 : 2);
            // (A single unit needs no 64-bit divide.)
            if (w.type != FuType::Crb && w.type != FuType::KshGen)
                slots = std::max(slots, w.units == 1
                                            ? w.vecs
                                            : ceilDiv(w.vecs, w.units));
        }
        inst.reads.assign(reads.begin(), reads.end());
        inst.writes = {write};
        inst.duration = slots * vc;
        inst.rfPorts = clamp_ports(ports);
        inst.rfWords = rf_words;
        prog.addInst(inst);
    };

    // LowerStats: vectors of NTT, multiply, add and CRB-MAC work.
    auto count = [&](std::uint64_t ntt, std::uint64_t mul, std::uint64_t add,
                     std::uint64_t crb) {
        stats_.nttVectors += ntt;
        stats_.mulVectors += mul;
        stats_.addVectors += add;
        stats_.crbMacVectors += crb;
    };

    const bool chained_crb = cfg_.hasCrb && cfg_.hasChaining;
    // Parallelism the register file allows for unchained 3-port MACs.
    const unsigned sw_par = std::max(
        1u, std::min({cfg_.mulUnits, cfg_.addUnits, cfg_.rfPorts / 3u}));

    /**
     * Emit op's keyswitch @p k of a single polynomial under its hint,
     * fused with a final combine-add of @p extra_read (tensor product
     * or rotated c0) into `out_vid`.
     */
    auto emit_keyswitch = [&](const HomOp &op, const opcost::KeySwitch &k,
                              std::uint32_t in_vid,
                              std::uint32_t extra_read,
                              std::uint32_t out_vid) {
        const std::uint32_t id = op.id;
        const unsigned l = op.level;
        ++stats_.keyswitches;
        count(k.chipNtts(), k.chipMuls(), k.chipAdds(), k.chipCrbMacs());
        const std::uint32_t ksh = get_ksh(op, op.digits);

        // --- Mod-up: INTT l, change base per digit, NTT the raised
        //     residues (Listing 1, lines 2-4). Single-prime digits
        //     lift by broadcast, so only modUpMacs reach the CRB. ---
        const std::uint64_t crb_macs = k.modUpMacs;
        const std::uint64_t ntt_mu = k.modUpIntts + k.modUpNtts;
        const std::uint64_t raised_towers = ntt_mu; // dnum * ext
        const std::uint32_t raised = prog.addValue(
            ValueKind::Intermediate, raised_towers * n, "raised", id);
        if (chained_crb) {
            emit(id, "ksw.modup",
                 {{FuType::Ntt, par(cfg_.nttUnits, ntt_mu), ntt_mu},
                  {FuType::Crb, 1, crb_macs}},
                 {in_vid}, raised, 2, (l + raised_towers) * n,
                 std::max(k.modUpIntts, k.modUpNtts));
        } else {
            // Software change-RNS-base: the MACs flow through the
            // register file on the multiply/add units, throttled by
            // ports — the bottleneck the CRB removes (Sec 3, Sec 5.1).
            // The INTT stages its result in place.
            emit(id, "ksw.modup.intt",
                 {{FuType::Ntt, par(cfg_.nttUnits, k.modUpIntts),
                   k.modUpIntts}},
                 {in_vid}, raised, 2, 2ull * l * n);
            // Standard keyswitching (single-prime digits) lifts by
            // broadcast and skips this stage entirely.
            if (crb_macs > 0)
                emit(id, "ksw.modup.macs",
                     {{FuType::Multiply, sw_par, crb_macs},
                      {FuType::Add, sw_par, crb_macs}},
                     {raised}, raised, 3 * sw_par, 3 * crb_macs * n);
            emit(id, "ksw.modup.ntt",
                 {{FuType::Ntt, par(cfg_.nttUnits, k.modUpNtts),
                   k.modUpNtts}},
                 {raised}, raised, 2, 2 * k.modUpNtts * n);
        }

        // --- Hint MAC: raised x (b_j, a_j), accumulating into two
        //     ext-tower polynomials (Listing 1, line 6; Fig 8). ---
        const std::uint64_t mac_vecs = k.hintMacs;
        const std::uint32_t acc = prog.addValue(
            ValueKind::Intermediate, 2ull * k.ext * n, "acc", id);
        const unsigned want =
            cfg_.hasChaining
                ? 2u
                : std::max(1u, std::min(cfg_.mulUnits, cfg_.rfPorts / 3u));
        // Units actually acquired are bounded by the pools; the
        // modelled latency must divide by that, not by the wish (on
        // mulUnits < 2 configs the two differ).
        const Work mul{FuType::Multiply,
                       std::max(1u, std::min(want, cfg_.mulUnits)), mac_vecs};
        const Work add{FuType::Add, std::max(1u, std::min(want, cfg_.addUnits)),
                       mac_vecs};
        const unsigned mac_ports = cfg_.hasChaining ? 4 : 3 * want;
        if (cfg_.hasKshGen)
            emit(id, "ksw.mac",
                 {mul, add, {FuType::KshGen, 1, raised_towers}},
                 {raised, ksh}, acc, mac_ports, (mac_vecs + mac_vecs / 2) * n);
        else
            emit(id, "ksw.mac", {mul, add}, {raised, ksh}, acc, mac_ports,
                 2 * mac_vecs * n);

        // --- Mod-down + combine (Listing 1, lines 7-10). ---
        const std::uint64_t ntt_md = k.modDownNtts;
        const std::uint64_t md_macs = k.modDownMacs;
        const std::uint64_t md_muls = k.pInvMuls;
        const std::uint64_t md_adds = k.subAdds + k.combineAdds;
        const Work md_ntt{FuType::Ntt, par(cfg_.nttUnits, ntt_md), ntt_md};
        const std::uint64_t md_words = (2ull * k.ext + 4ull * l) * n;
        if (chained_crb) {
            // Clamp the scale/combine stages to the pools and let the
            // slowest stage of the chain set the occupancy: the NTT
            // round trips, the P^-1 multiplies on one unit, or the adds
            // on the units actually acquired.
            emit(id, "ksw.moddown",
                 {md_ntt, {FuType::Crb, 1, md_macs},
                  {FuType::Multiply, 1, md_muls},
                  {FuType::Add, std::max(1u, std::min(2u, cfg_.addUnits)),
                   md_adds}},
                 {acc, extra_read}, out_vid, 4, md_words);
        } else {
            emit(id, "ksw.moddown",
                 {md_ntt,
                  {FuType::Multiply, std::min(sw_par, cfg_.mulUnits),
                   md_macs + md_muls},
                  {FuType::Add, std::min(sw_par, cfg_.addUnits),
                   md_macs + md_adds}},
                 {acc, extra_read}, out_vid, 3 * sw_par, md_words);
        }
    };

    /**
     * Emit op's rescale @p r from op.level to op.outLevel towers: INTT
     * the dropped towers, correct and NTT back into the remaining ones
     * (the chip never takes a kept tower out of NTT form). Each stage
     * divides by the units it actually acquired. Returns the value
     * holding the rescaled ciphertext.
     */
    auto emit_rescale = [&](const HomOp &op, const opcost::Rescale &r,
                            std::uint32_t in_vid) -> std::uint32_t {
        const unsigned l = op.level;
        const unsigned lo = op.outLevel;
        const std::uint64_t ntt_rs = r.chipNtts();
        const std::uint32_t out = prog.addValue(
            ValueKind::Intermediate, ct_words(lo), "out", op.id);
        emit(op.id, "rescale",
             {{FuType::Ntt, par(cfg_.nttUnits, ntt_rs), ntt_rs},
              {FuType::Multiply, par(cfg_.mulUnits, r.muls), r.muls},
              {FuType::Add, par(cfg_.addUnits, r.adds), r.adds}},
             {in_vid}, out, 3, (2ull * l + 2ull * lo) * n);
        count(ntt_rs, r.muls, r.adds, 0);
        return out;
    };

    // ------------------------------------------------------------------
    for (const HomOp &op : hp.ops) {
        const unsigned l = op.level;
        const unsigned lo = op.outLevel;
        const HomOpCost c = homOpCost(op, n);
        std::uint32_t &out = valueOf[op.id];

        switch (op.kind) {
          case HomOpKind::Input:
            out = prog.addValue(ValueKind::Input, ct_words(l), "in", op.id);
            break;
          case HomOpKind::Output:
            // Copy into an output-class value so the store is
            // accounted (and the source may still be consumed). Copies
            // pass through an add unit.
            out = prog.addValue(ValueKind::Output, ct_words(l), "out",
                                op.id);
            emit(op.id, "store", {{FuType::Add, 1, ct_vecs(l)}},
                 {valueOf[op.args[0]]}, out, 2, 2 * ct_words(l));
            break;
          case HomOpKind::Add:
            out = prog.addValue(ValueKind::Intermediate, ct_words(l), "sum",
                                op.id);
            emit(op.id, "add",
                 {{FuType::Add, par(cfg_.addUnits, c.adds), c.adds}},
                 {valueOf[op.args[0]], valueOf[op.args[1]]}, out, 3,
                 3 * ct_words(l));
            count(0, 0, c.adds, 0);
            break;
          case HomOpKind::AddPlain:
            out = prog.addValue(ValueKind::Intermediate, ct_words(l), "sum",
                                op.id);
            emit(op.id, "addp", {{FuType::Add, 1, c.adds}},
                 {valueOf[op.args[0]], get_plain(op, l)}, out, 3,
                 3ull * l * n);
            count(0, 0, c.adds, 0);
            break;
          case HomOpKind::MulPlain: {
            out = prog.addValue(ValueKind::Intermediate, ct_words(lo),
                                "prod", op.id);
            const std::uint64_t mul_vecs = c.plainMuls;
            const std::uint64_t ntt_vecs = c.rescale.chipNtts();
            const std::uint64_t add_vecs = c.rescale.adds;
            const Work mul{FuType::Multiply, par(cfg_.mulUnits, mul_vecs),
                           mul_vecs};
            const std::uint32_t plain = get_plain(op, l);
            const std::uint64_t rf_words = (3ull * l + 2ull * lo) * n;
            // Fused rescale: INTT dropped towers, correct and NTT back
            // into the remaining ones; the correction multiply rides
            // the plaintext multiply, and the correction adds can bound
            // the pass on few-adder configs.
            if (lo < l)
                emit(op.id, "mulp",
                     {mul,
                      {FuType::Ntt, par(cfg_.nttUnits, ntt_vecs), ntt_vecs},
                      {FuType::Add, par(cfg_.addUnits, add_vecs), add_vecs}},
                     {valueOf[op.args[0]], plain}, out, 4, rf_words);
            else
                emit(op.id, "mulp", {mul}, {valueOf[op.args[0]], plain}, out,
                     4, rf_words);
            count(ntt_vecs, mul_vecs, add_vecs, 0);
            break;
          }
          case HomOpKind::Mul: {
            // Tensor product: t2 = a1*b1 switched; (t0, t1) combined,
            // bounded by the multiplies or the combine adds.
            const std::uint32_t tensor = prog.addValue(
                ValueKind::Intermediate, 3ull * l * n, "tensor", op.id);
            const opcost::Tensor &t = c.tensor;
            emit(op.id, "tensor",
                 {{FuType::Multiply, par(cfg_.mulUnits, t.muls), t.muls},
                  {FuType::Add, par(cfg_.addUnits, t.adds), t.adds}},
                 {valueOf[op.args[0]], valueOf[op.args[1]]}, tensor,
                 cfg_.hasChaining ? 5 : 6, (4ull * l + 3ull * l) * n);
            count(0, t.muls, t.adds, 0);

            // Relinearize t2 and fold the combine into mod-down.
            const std::uint32_t ks = prog.addValue(
                ValueKind::Intermediate, ct_words(l), "relin", op.id);
            emit_keyswitch(op, c.ks, tensor, tensor, ks);

            // A lazy multiply (lo == l) keeps its level: there is no
            // tower to strip, so emitting the rescale instruction
            // anyway would charge spurious NTT round trips plus
            // phantom mult/add vectors for work no backend performs.
            out = lo < l ? emit_rescale(op, c.rescale, ks) : ks;
            break;
          }
          case HomOpKind::Rotate:
          case HomOpKind::Conjugate: {
            const std::uint32_t rot = prog.addValue(
                ValueKind::Intermediate, ct_words(l), "rot", op.id);
            emit(op.id, "auto",
                 {{FuType::Automorphism, 1, c.rotation.ctAutomorphisms}},
                 {valueOf[op.args[0]]}, rot, 2, 2 * ct_words(l));
            out = prog.addValue(ValueKind::Intermediate, ct_words(l), "out",
                                op.id);
            emit_keyswitch(op, c.ks, rot, rot, out);
            break;
          }
          case HomOpKind::Rescale:
            out = emit_rescale(op, c.rescale, valueOf[op.args[0]]);
            break;
          case HomOpKind::LevelDrop:
            out = prog.addValue(ValueKind::Intermediate, ct_words(lo), "out",
                                op.id);
            emit(op.id, "leveldrop", {{FuType::Add, 1, ct_vecs(lo)}},
                 {valueOf[op.args[0]]}, out, 2, 2 * ct_words(lo));
            break;
          case HomOpKind::ModRaise: {
            // Raise both polynomials from l to lo (> l) towers:
            // INTT, change base, NTT everything back up.
            out = prog.addValue(ValueKind::Intermediate, ct_words(lo),
                                "raised", op.id);
            const opcost::ModRaise &m = c.raise;
            const Work ntt{FuType::Ntt, par(cfg_.nttUnits, m.ntts), m.ntts};
            const std::uint64_t rf_words = (2ull * l + 2ull * lo) * n;
            if (cfg_.hasCrb)
                emit(op.id, "modraise", {ntt, {FuType::Crb, 1, m.macs}},
                     {valueOf[op.args[0]]}, out, 2, rf_words);
            else
                emit(op.id, "modraise",
                     {ntt, {FuType::Multiply, sw_par, m.macs},
                      {FuType::Add, sw_par, m.macs}},
                     {valueOf[op.args[0]]}, out, 3 * sw_par, rf_words);
            count(m.ntts, 0, 0, m.macs);
            break;
          }
        }
    }

    prog.validate();
    if (schedule_ != ScheduleMode::None)
        prog = scheduleProgram(prog, cfg_, schedule_, &schedStats_);
    return prog;
}

} // namespace cl
