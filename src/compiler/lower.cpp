#include "lower.h"

#include <algorithm>
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

    auto ct_words = [&](unsigned l) {
        return static_cast<std::uint64_t>(2) * l * n;
    };

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
        const unsigned a = static_cast<unsigned>(ceilDiv(lk, tk));
        const unsigned ext = lk + a;
        // lk towers in digits of a towers (the last one may be short)
        // make ceil(lk / a) digits, which can be fewer than tk.
        const unsigned dnum = static_cast<unsigned>(ceilDiv(lk, a));
        std::uint32_t &slot = kshCache.at(key, dnum);
        if (slot != noValue)
            return slot;
        // Full hint: dnum pairs over ext moduli. With KSHGen, only
        // the b-halves are stored/loaded (Sec 5.2).
        std::uint64_t words =
            static_cast<std::uint64_t>(2) * dnum * ext * n;
        if (cfg_.hasKshGen)
            words /= 2;
        slot = prog.addValue(ValueKind::KeySwitchHint, words);
        Value &v = prog.values[slot];
        v.name = op.keyId + "#d" + std::to_string(dnum);
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

    // An instruction of op @p hom_op's @p stage (a static string).
    auto make_inst = [&](std::uint32_t hom_op, const char *stage) {
        PolyInst inst;
        inst.homOp = hom_op;
        inst.stage = stage;
        inst.n = n;
        return inst;
    };

    // Parallelism the register file allows for unchained 3-port MACs.
    const unsigned sw_par = std::max(
        1u, std::min({cfg_.mulUnits, cfg_.addUnits, cfg_.rfPorts / 3u}));

    /**
     * Emit op's keyswitch of a single polynomial (op.level towers,
     * op.digits digits) under its hint, fused with a final combine-add
     * into the output value. `extra_read` is the ciphertext part added
     * in at the end (tensor product or rotated c0). Returns nothing;
     * the result is written to `out_vid`.
     */
    auto emit_keyswitch = [&](const HomOp &op, std::uint32_t in_vid,
                              std::uint32_t extra_read,
                              std::uint32_t out_vid) {
        const std::uint32_t hom_op = op.id;
        const unsigned l = op.level;
        const unsigned t = op.digits;
        ++stats_.keyswitches;
        const unsigned a = static_cast<unsigned>(ceilDiv(l, t));
        const unsigned dnum = static_cast<unsigned>(ceilDiv(l, a));
        const unsigned ext = l + a;
        const std::uint32_t ksh = get_ksh(op, t);

        // --- Mod-up: INTT l, change base per digit, NTT the raised
        //     residues (Listing 1, lines 2-4). ---
        std::uint64_t crb_macs = 0;
        for (unsigned left = l; left > 0;) {
            const unsigned dj = std::min(a, left);
            // Single-prime digits lift by broadcast (no multiplies).
            if (dj > 1)
                crb_macs += static_cast<std::uint64_t>(dj) * (ext - dj);
            left -= dj;
        }
        const std::uint64_t ntt_mu =
            static_cast<std::uint64_t>(dnum) * ext; // INTT l + NTT rest
        stats_.nttVectors += ntt_mu;
        stats_.crbMacVectors += crb_macs;

        const std::uint32_t raised = prog.addValue(
            ValueKind::Intermediate,
            static_cast<std::uint64_t>(dnum) * ext * n, "raised", hom_op);

        if (cfg_.hasCrb && cfg_.hasChaining) {
            PolyInst mu = make_inst(hom_op, "ksw.modup");
            const unsigned nu = par(cfg_.nttUnits, ntt_mu);
            mu.fus = {{FuType::Ntt, nu, ntt_mu * bflyPerVec},
                      {FuType::Crb, 1, crb_macs * n}};
            mu.reads = {in_vid};
            mu.writes = {raised};
            mu.duration =
                std::max(ceilDiv(ntt_mu, nu) * vc,
                         std::max<std::uint64_t>(l, dnum * ext - l) * vc);
            mu.networkWords = ntt_mu * n;
            mu.rfPorts = clamp_ports(2);
            mu.rfWords = (l + static_cast<std::uint64_t>(dnum) * ext) * n;
            prog.addInst(std::move(mu));
        } else {
            // Software change-RNS-base: the MACs flow through the
            // register file on the multiply/add units, throttled by
            // ports — the bottleneck the CRB removes (Sec 3, Sec 5.1).
            PolyInst intt = make_inst(hom_op, "ksw.modup.intt");
            const unsigned niu = par(cfg_.nttUnits, l);
            intt.fus = {{FuType::Ntt, niu,
                         static_cast<std::uint64_t>(l) * bflyPerVec}};
            intt.reads = {in_vid};
            intt.writes = {raised}; // staged in place
            intt.duration = ceilDiv(l, niu) * vc;
            intt.networkWords = static_cast<std::uint64_t>(l) * n;
            intt.rfPorts = clamp_ports(2);
            intt.rfWords = static_cast<std::uint64_t>(2) * l * n;
            prog.addInst(std::move(intt));

            if (crb_macs > 0) {
                // Standard keyswitching (single-prime digits) lifts
                // by broadcast and skips this stage entirely.
                PolyInst mac = make_inst(hom_op, "ksw.modup.macs");
                mac.fus = {{FuType::Multiply, sw_par, crb_macs * n},
                           {FuType::Add, sw_par, crb_macs * n}};
                mac.reads = {raised};
                mac.writes = {raised};
                mac.duration = ceilDiv(crb_macs, sw_par) * vc;
                mac.rfPorts = clamp_ports(3 * sw_par);
                mac.rfWords = 3 * crb_macs * n;
                prog.addInst(std::move(mac));
            }

            PolyInst ntt = make_inst(hom_op, "ksw.modup.ntt");
            const std::uint64_t ntt_out = ntt_mu - l;
            const unsigned nou = par(cfg_.nttUnits, ntt_out);
            ntt.fus = {{FuType::Ntt, nou, ntt_out * bflyPerVec}};
            ntt.reads = {raised};
            ntt.writes = {raised};
            ntt.duration = ceilDiv(ntt_out, nou) * vc;
            ntt.networkWords = ntt_out * n;
            ntt.rfPorts = clamp_ports(2);
            ntt.rfWords = 2 * ntt_out * n;
            prog.addInst(std::move(ntt));
        }

        // --- Hint MAC: raised x (b_j, a_j), accumulating into two
        //     ext-tower polynomials (Listing 1, line 6; Fig 8). ---
        const std::uint64_t mac_vecs =
            static_cast<std::uint64_t>(2) * dnum * ext;
        stats_.mulVectors += mac_vecs;
        stats_.addVectors += mac_vecs;

        const std::uint32_t acc = prog.addValue(
            ValueKind::Intermediate,
            static_cast<std::uint64_t>(2) * ext * n, "acc", hom_op);

        {
            PolyInst mac = make_inst(hom_op, "ksw.mac");
            const bool chained = cfg_.hasChaining;
            const unsigned want =
                chained ? 2u
                        : std::max(1u, std::min(cfg_.mulUnits,
                                                cfg_.rfPorts / 3u));
            // Units actually acquired are bounded by the pools; the
            // modelled latency must divide by that, not by the wish
            // (on mulUnits < 2 configs the two differ).
            const unsigned mu =
                std::max(1u, std::min(want, cfg_.mulUnits));
            const unsigned au =
                std::max(1u, std::min(want, cfg_.addUnits));
            mac.fus = {{FuType::Multiply, mu, mac_vecs * n},
                       {FuType::Add, au, mac_vecs * n}};
            if (cfg_.hasKshGen) {
                mac.fus.push_back({FuType::KshGen, 1,
                                   static_cast<std::uint64_t>(dnum) * ext *
                                       n});
            }
            mac.reads = {raised, ksh};
            mac.writes = {acc};
            mac.duration = ceilDiv(mac_vecs, std::min(mu, au)) * vc;
            mac.rfPorts = clamp_ports(chained ? 4 : 3 * want);
            mac.rfWords =
                (mac_vecs + (cfg_.hasKshGen ? mac_vecs / 2 : mac_vecs)) * n;
            prog.addInst(std::move(mac));
        }

        // --- Mod-down + combine (Listing 1, lines 7-10). ---
        const std::uint64_t ntt_md = static_cast<std::uint64_t>(2) *
                                     (a + l);
        const std::uint64_t md_macs =
            static_cast<std::uint64_t>(2) * a * l;
        stats_.nttVectors += ntt_md;
        stats_.crbMacVectors += md_macs;
        stats_.mulVectors += 2ull * l;
        stats_.addVectors += 4ull * l; // subtract + combine

        {
            PolyInst md = make_inst(hom_op, "ksw.moddown");
            const unsigned nmu = par(cfg_.nttUnits, ntt_md);
            if (cfg_.hasCrb && cfg_.hasChaining) {
                // Clamp the scale/combine stages to the pools and let
                // the slowest stage of the chain set the occupancy:
                // the NTT round trips, 2l multiplies on one unit, or
                // 4l adds on the units actually acquired.
                const unsigned mda =
                    std::max(1u, std::min(2u, cfg_.addUnits));
                md.fus = {{FuType::Ntt, nmu, ntt_md * bflyPerVec},
                          {FuType::Crb, 1, md_macs * n},
                          {FuType::Multiply, 1, 2ull * l * n},
                          {FuType::Add, mda, 4ull * l * n}};
                md.duration =
                    std::max<std::uint64_t>({ceilDiv(ntt_md, nmu),
                                             2ull * l,
                                             ceilDiv(4ull * l, mda)}) *
                    vc;
                md.rfPorts = clamp_ports(4);
            } else {
                md.fus = {{FuType::Ntt, nmu, ntt_md * bflyPerVec},
                          {FuType::Multiply, std::min(sw_par,
                                                      cfg_.mulUnits),
                           (md_macs + 2ull * l) * n},
                          {FuType::Add, std::min(sw_par, cfg_.addUnits),
                           (md_macs + 4ull * l) * n}};
                md.duration =
                    std::max(ceilDiv(ntt_md, nmu),
                             ceilDiv(md_macs + 4 * l, sw_par)) * vc;
                md.rfPorts = clamp_ports(3 * sw_par);
            }
            md.reads = {acc};
            if (extra_read != noValue)
                md.reads.push_back(extra_read);
            md.writes = {out_vid};
            md.networkWords = ntt_md * n;
            md.rfWords = (2ull * ext + 4ull * l) * n;
            prog.addInst(std::move(md));
        }
    };

    /**
     * Emit op's rescale from op.level to op.outLevel towers: INTT the
     * dropped towers, correct and NTT back into the remaining ones.
     * Returns the value holding the rescaled ciphertext.
     */
    auto emit_rescale = [&](const HomOp &op,
                            std::uint32_t in_vid) -> std::uint32_t {
        const unsigned l = op.level;
        const unsigned lo = op.outLevel;
        const std::uint64_t ntt_rs = 2ull * (l - lo) + 2ull * lo;
        const std::uint32_t out = prog.addValue(
            ValueKind::Intermediate, ct_words(lo), "out", op.id);
        PolyInst rs = make_inst(op.id, "rescale");
        const unsigned rsu = par(cfg_.nttUnits, ntt_rs);
        const unsigned rmu = par(cfg_.mulUnits, 2ull * lo);
        const unsigned rau = par(cfg_.addUnits, 2ull * lo);
        rs.fus = {{FuType::Ntt, rsu, ntt_rs * bflyPerVec},
                  {FuType::Multiply, rmu, 2ull * lo * n},
                  {FuType::Add, rau, 2ull * lo * n}};
        rs.reads = {in_vid};
        rs.writes = {out};
        // Slowest stage of the chain, each divided by the units it
        // actually acquired.
        rs.duration = std::max<std::uint64_t>({ceilDiv(ntt_rs, rsu),
                                               ceilDiv(2ull * lo, rmu),
                                               ceilDiv(2ull * lo, rau)}) *
                      vc;
        rs.networkWords = ntt_rs * n;
        rs.rfPorts = clamp_ports(3);
        rs.rfWords = (2ull * l + 2ull * lo) * n;
        stats_.nttVectors += ntt_rs;
        stats_.mulVectors += 2ull * lo;
        stats_.addVectors += 2ull * lo;
        prog.addInst(std::move(rs));
        return out;
    };

    // ------------------------------------------------------------------
    for (const HomOp &op : hp.ops) {
        const unsigned l = op.level;
        const unsigned lo = op.outLevel;

        switch (op.kind) {
          case HomOpKind::Input: {
            valueOf[op.id] =
                prog.addValue(ValueKind::Input, ct_words(l), "in", op.id);
            break;
          }
          case HomOpKind::Output: {
            const std::uint32_t src = valueOf[op.args[0]];
            // Copy into an output-class value so the store is
            // accounted (and the source may still be consumed).
            const std::uint32_t out = prog.addValue(
                ValueKind::Output, ct_words(l), "out", op.id);
            PolyInst cp = make_inst(op.id, "store");
            cp.fus = {{FuType::Add, 1, ct_words(l)}};
            cp.reads = {src};
            cp.writes = {out};
            cp.duration = ceilDiv(2ull * l, 1) * vc;
            cp.rfPorts = clamp_ports(2);
            cp.rfWords = 2 * ct_words(l);
            prog.addInst(std::move(cp));
            valueOf[op.id] = out;
            break;
          }
          case HomOpKind::Add: {
            const std::uint32_t out = prog.addValue(
                ValueKind::Intermediate, ct_words(l), "sum", op.id);
            PolyInst inst = make_inst(op.id, "add");
            const unsigned apu = par(cfg_.addUnits, 2ull * l);
            inst.fus = {{FuType::Add, apu, ct_words(l)}};
            inst.reads = {valueOf[op.args[0]], valueOf[op.args[1]]};
            inst.writes = {out};
            inst.duration = ceilDiv(2ull * l, apu) * vc;
            inst.rfPorts = clamp_ports(3);
            inst.rfWords = 3 * ct_words(l);
            stats_.addVectors += 2ull * l;
            prog.addInst(std::move(inst));
            valueOf[op.id] = out;
            break;
          }
          case HomOpKind::AddPlain: {
            const std::uint32_t out = prog.addValue(
                ValueKind::Intermediate, ct_words(l), "sum", op.id);
            PolyInst inst = make_inst(op.id, "addp");
            inst.fus = {{FuType::Add, 1, static_cast<std::uint64_t>(l) *
                                             n}};
            inst.reads = {valueOf[op.args[0]],
                          get_plain(op, l)};
            inst.writes = {out};
            inst.duration = static_cast<std::uint64_t>(l) * vc;
            inst.rfPorts = clamp_ports(3);
            inst.rfWords = (3ull * l) * n;
            stats_.addVectors += l;
            prog.addInst(std::move(inst));
            valueOf[op.id] = out;
            break;
          }
          case HomOpKind::MulPlain: {
            const unsigned drop = l - lo;
            const std::uint32_t out = prog.addValue(
                ValueKind::Intermediate, ct_words(lo), "prod", op.id);
            PolyInst inst = make_inst(op.id, "mulp");
            const std::uint64_t mul_vecs = 2ull * l;
            std::uint64_t ntt_vecs = 0;
            const unsigned mpu = par(cfg_.mulUnits, mul_vecs);
            unsigned npu = 1;
            inst.fus = {{FuType::Multiply, mpu, mul_vecs * n}};
            unsigned apu = 1;
            if (drop > 0) {
                // Fused rescale: INTT dropped towers, correct and NTT
                // back into the remaining ones.
                ntt_vecs = 2ull * drop + 2ull * lo;
                npu = par(cfg_.nttUnits, ntt_vecs);
                apu = par(cfg_.addUnits, 2ull * lo);
                inst.fus.push_back({FuType::Ntt, npu,
                                    ntt_vecs * bflyPerVec});
                inst.fus.push_back({FuType::Add, apu, 2ull * lo * n});
                inst.networkWords = ntt_vecs * n;
            }
            inst.reads = {valueOf[op.args[0]], get_plain(op, l)};
            inst.writes = {out};
            // Every stage's latency divides by the units it acquired;
            // the correction adds can bound the pass on few-adder
            // configs.
            inst.duration =
                std::max<std::uint64_t>(
                    {ceilDiv(mul_vecs, mpu), ceilDiv(ntt_vecs, npu),
                     drop > 0 ? ceilDiv(2ull * lo, apu) : 0ull}) *
                vc;
            inst.rfPorts = clamp_ports(4);
            inst.rfWords = (3ull * l + 2ull * lo) * n;
            stats_.mulVectors += mul_vecs;
            stats_.nttVectors += ntt_vecs;
            if (drop > 0)
                stats_.addVectors += 2ull * lo;
            prog.addInst(std::move(inst));
            valueOf[op.id] = out;
            break;
          }
          case HomOpKind::Mul: {
            const unsigned drop = l - lo;
            const std::uint32_t va = valueOf[op.args[0]];
            const std::uint32_t vb = valueOf[op.args[1]];
            // Tensor product: t2 = a1*b1 switched; (t0, t1) combined.
            const std::uint32_t tensor = prog.addValue(
                ValueKind::Intermediate, 3ull * l * n, "tensor", op.id);
            PolyInst tp = make_inst(op.id, "tensor");
            const std::uint64_t tmuls = 4ull * l;
            const unsigned tpu = par(cfg_.mulUnits, tmuls);
            const unsigned tau =
                par(cfg_.addUnits, static_cast<std::uint64_t>(l));
            tp.fus = {{FuType::Multiply, tpu, tmuls * n},
                      {FuType::Add, tau,
                       static_cast<std::uint64_t>(l) * n}};
            tp.reads = {va, vb};
            tp.writes = {tensor};
            // Bounded by either the 4l multiplies or the l combine
            // adds, each divided by the units actually acquired.
            tp.duration =
                std::max(ceilDiv(tmuls, tpu),
                         ceilDiv(static_cast<std::uint64_t>(l), tau)) *
                vc;
            tp.rfPorts = clamp_ports(cfg_.hasChaining ? 5 : 6);
            tp.rfWords = (4ull * l + 3ull * l) * n;
            stats_.mulVectors += tmuls;
            stats_.addVectors += l;
            prog.addInst(std::move(tp));

            // Relinearize t2 and fold the combine into mod-down.
            const std::uint32_t ks = prog.addValue(
                ValueKind::Intermediate, ct_words(l), "relin", op.id);
            emit_keyswitch(op, tensor, tensor, ks);

            // A lazy multiply (drop == 0) keeps its level: there is no
            // tower to strip, so emitting the rescale instruction
            // anyway would charge 2*lo spurious NTT round trips plus
            // phantom mult/add vectors for work no backend performs.
            if (drop == 0) {
                valueOf[op.id] = ks;
                break;
            }

            valueOf[op.id] = emit_rescale(op, ks);
            break;
          }
          case HomOpKind::Rotate:
          case HomOpKind::Conjugate: {
            const std::uint32_t src = valueOf[op.args[0]];
            const std::uint32_t rot = prog.addValue(
                ValueKind::Intermediate, ct_words(l), "rot", op.id);
            PolyInst au = make_inst(op.id, "auto");
            au.fus = {{FuType::Automorphism, 1, ct_words(l)}};
            au.reads = {src};
            au.writes = {rot};
            au.duration = 2ull * l * vc;
            au.networkWords = 2ull * ct_words(l); // two transposes each
            au.rfPorts = clamp_ports(2);
            au.rfWords = 2 * ct_words(l);
            prog.addInst(std::move(au));

            const std::uint32_t out = prog.addValue(
                ValueKind::Intermediate, ct_words(l), "out", op.id);
            emit_keyswitch(op, rot, rot, out);
            valueOf[op.id] = out;
            break;
          }
          case HomOpKind::Rescale: {
            valueOf[op.id] = emit_rescale(op, valueOf[op.args[0]]);
            break;
          }
          case HomOpKind::LevelDrop: {
            const std::uint32_t out = prog.addValue(
                ValueKind::Intermediate, ct_words(lo), "out", op.id);
            PolyInst cp = make_inst(op.id, "leveldrop");
            cp.fus = {{FuType::Add, 1, ct_words(lo)}};
            cp.reads = {valueOf[op.args[0]]};
            cp.writes = {out};
            cp.duration = 2ull * lo * vc;
            cp.rfPorts = clamp_ports(2);
            cp.rfWords = 2 * ct_words(lo);
            prog.addInst(std::move(cp));
            valueOf[op.id] = out;
            break;
          }
          case HomOpKind::ModRaise: {
            // Raise both polynomials from l to lo (> l) towers:
            // INTT, change base, NTT everything back up.
            const std::uint32_t out = prog.addValue(
                ValueKind::Intermediate, ct_words(lo), "raised", op.id);
            PolyInst mr = make_inst(op.id, "modraise");
            const std::uint64_t ntt_vecs =
                2ull * l + 2ull * lo; // INTT in + NTT out
            const std::uint64_t macs =
                2ull * l * (lo - l); // change-base MACs
            const unsigned mru = par(cfg_.nttUnits, ntt_vecs);
            if (cfg_.hasCrb) {
                mr.fus = {{FuType::Ntt, mru, ntt_vecs * bflyPerVec},
                          {FuType::Crb, 1, macs * n}};
                mr.duration = ceilDiv(ntt_vecs, mru) * vc;
                mr.rfPorts = clamp_ports(2);
            } else {
                mr.fus = {{FuType::Ntt, mru, ntt_vecs * bflyPerVec},
                          {FuType::Multiply, sw_par, macs * n},
                          {FuType::Add, sw_par, macs * n}};
                mr.duration = std::max(ceilDiv(ntt_vecs, mru),
                                       ceilDiv(macs, sw_par)) * vc;
                mr.rfPorts = clamp_ports(3 * sw_par);
            }
            mr.reads = {valueOf[op.args[0]]};
            mr.writes = {out};
            mr.networkWords = ntt_vecs * n;
            mr.rfWords = (2ull * l + 2ull * lo) * n;
            stats_.nttVectors += ntt_vecs;
            stats_.crbMacVectors += macs;
            prog.addInst(std::move(mr));
            valueOf[op.id] = out;
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
