#include "hostrun.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <set>
#include <unordered_map>

#include "compiler/schedule.h"

namespace cl {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t x)
{
    h ^= x;
    h *= kFnvPrime;
    return h;
}

std::uint64_t
fnvString(const std::string &s)
{
    std::uint64_t h = kFnvOffset;
    for (char c : s)
        h = fnvMix(h, static_cast<unsigned char>(c));
    return h;
}

/** Deterministic per-op value seed (splitmix-style finalizer). */
std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<Complex>
slotValues(std::uint64_t seed, std::size_t slots)
{
    FastRng rng(seed);
    std::vector<Complex> v(slots);
    for (auto &z : v)
        z = Complex(rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1);
    return v;
}

std::uint64_t
digestPoly(std::uint64_t h, const RnsPoly &p)
{
    h = fnvMix(h, p.towers());
    for (unsigned idx : p.modIdx())
        h = fnvMix(h, idx);
    h = fnvMix(h, p.isNtt() ? 1 : 0);
    for (std::size_t t = 0; t < p.towers(); ++t)
        for (u64 w : p.residue(t))
            h = fnvMix(h, w);
    return h;
}

} // namespace

std::uint64_t
digestCiphertext(std::uint64_t h, const Ciphertext &ct)
{
    h = fnvMix(h, ct.level());
    h = fnvMix(h, std::bit_cast<std::uint64_t>(ct.scale));
    h = digestPoly(h, ct.c0);
    return digestPoly(h, ct.c1);
}

unsigned
HostRunner::effLevel(unsigned level) const
{
    return std::max(1u, std::min(level, ctx_.l()));
}

HostRunner::HostRunner(const CkksContext &ctx, const CkksEncoder &enc,
                       KeyGenerator &keygen, const HomProgram &prog)
    : ctx_(ctx), enc_(enc), eval_(ctx)
{
    const long slots = static_cast<long>(ctx.slots());
    std::set<int> steps;
    bool conjugate = false;
    for (const HomOp &op : prog.ops) {
        if (op.kind == HomOpKind::Rotate) {
            const int s = static_cast<int>(
                ((op.rotateBy % slots) + slots) % slots);
            if (s != 0)
                steps.insert(s);
        } else if (op.kind == HomOpKind::Conjugate) {
            conjugate = true;
        }
    }
    pk_ = keygen.genPublicKey();
    relin_ = keygen.genRelinKey();
    galois_ = keygen.genRotationKeys(
        std::vector<int>(steps.begin(), steps.end()), conjugate);
}

HostRunResult
HostRunner::run(const HomProgram &prog,
                const HostRunOptions &opts) const
{
    const std::size_t slots = ctx_.slots();
    const double scale = ctx_.params().scale();
    const long lslots = static_cast<long>(slots);

    // ---- Plaintexts: one key per (plainId, level). This pass only
    //      numbers the keys; the first task that needs a key encodes
    //      it on its own worker, later consumers reuse it, and the
    //      last one releases it (releaseOperands). ----
    constexpr std::uint32_t kNoPlain = ~std::uint32_t{0};
    std::vector<std::uint32_t> plainOf(prog.ops.size(), kNoPlain);
    std::unordered_map<std::string, std::uint32_t> keys;
    for (std::uint32_t i = 0; i < prog.ops.size(); ++i) {
        const HomOp &op = prog.ops[i];
        if (op.kind != HomOpKind::AddPlain && op.kind != HomOpKind::MulPlain)
            continue;
        const std::string key =
            op.plainId + "@" + std::to_string(effLevel(op.level));
        plainOf[i] =
            keys.try_emplace(key, static_cast<std::uint32_t>(keys.size()))
                .first->second;
    }
    struct Plain
    {
        std::once_flag encoded;
        RnsPoly poly;
        std::atomic<std::uint32_t> uses{0};
    };
    std::vector<Plain> plains(keys.size());
    std::atomic<std::size_t> encodes{0};
    for (std::uint32_t k : plainOf)
        if (k != kNoPlain)
            plains[k].uses.fetch_add(1, std::memory_order_relaxed);

    // The plaintext of plain op i, encoded on first use and kept in
    // NTT form so no consumer repeats the transform.
    auto acquirePlain = [&](std::uint32_t i) -> const RnsPoly & {
        Plain &pl = plains[plainOf[i]];
        std::call_once(pl.encoded, [&] {
            const HomOp &op = prog.ops[i];
            const auto vals = slotValues(
                mixSeed(opts.seed, fnvString(op.plainId)), slots);
            pl.poly = enc_.encode(vals, scale, effLevel(op.level));
            pl.poly.toNtt();
            ctx_.ops().ntts += pl.poly.towers();
            encodes.fetch_add(1, std::memory_order_relaxed);
        });
        return pl.poly;
    };

    // ---- One task per op over the dedup'd dependence graph. Each
    //      op's ciphertext is dropped once its last consumer has read
    //      it; Output slots stay for the digest. ----
    std::vector<Ciphertext> cts(prog.ops.size());
    std::vector<std::atomic<std::uint32_t>> ctUses(prog.ops.size());
    for (const HomOp &op : prog.ops)
        for (std::uint32_t a : op.args)
            ctUses[a].fetch_add(1, std::memory_order_relaxed);

    // Op i has read its operands: release the ones it used last.
    auto releaseOperands = [&](std::uint32_t i) {
        if (plainOf[i] != kNoPlain) {
            Plain &pl = plains[plainOf[i]];
            if (pl.uses.fetch_sub(1, std::memory_order_acq_rel) == 1)
                pl.poly = RnsPoly();
        }
        for (std::uint32_t a : prog.ops[i].args)
            if (ctUses[a].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
                prog.ops[a].kind != HomOpKind::Output)
                cts[a] = Ciphertext();
    };

    auto dropTo = [&](Ciphertext &ct, unsigned target) {
        while (ct.level() > target)
            eval_.rescale(ct);
    };

    auto execOp = [&](std::uint32_t i) {
        const HomOp &op = prog.ops[i];
        const unsigned out_level = effLevel(op.outLevel);
        Ciphertext r;
        switch (op.kind) {
        case HomOpKind::Input: {
            // Per-task PRNG stream: each input draws from its own
            // seeded encryptor, so encryption order cannot matter.
            const std::uint64_t vseed = mixSeed(opts.seed, op.id);
            const RnsPoly pt = enc_.encode(slotValues(vseed, slots),
                                           scale, out_level);
            Encryptor encryptor(ctx_, pk_, vseed ^ 0x656e63ULL);
            r = encryptor.encrypt(pt, scale);
            break;
        }
        case HomOpKind::Add:
            r = eval_.add(cts[op.args[0]], cts[op.args[1]]);
            break;
        case HomOpKind::AddPlain:
            r = eval_.addPlain(cts[op.args[0]], acquirePlain(i));
            break;
        case HomOpKind::MulPlain:
            r = eval_.mulPlain(cts[op.args[0]], acquirePlain(i), scale);
            dropTo(r, out_level);
            break;
        case HomOpKind::Mul:
            r = eval_.multiply(cts[op.args[0]], cts[op.args[1]], relin_);
            dropTo(r, out_level);
            break;
        case HomOpKind::Rotate:
            r = eval_.rotate(cts[op.args[0]],
                             static_cast<int>(op.rotateBy % lslots),
                             galois_);
            break;
        case HomOpKind::Conjugate:
            r = eval_.conjugate(cts[op.args[0]], galois_);
            break;
        case HomOpKind::Rescale:
            r = cts[op.args[0]];
            dropTo(r, out_level);
            break;
        case HomOpKind::LevelDrop:
            r = cts[op.args[0]];
            if (out_level < r.level())
                eval_.levelDrop(r, out_level);
            break;
        case HomOpKind::ModRaise:
            // Clamped chains may leave nothing to raise to: degrade
            // to a copy (the projection keeps dataflow, not depth).
            if (out_level > cts[op.args[0]].level())
                r = eval_.modRaise(cts[op.args[0]], out_level);
            else
                r = cts[op.args[0]];
            break;
        case HomOpKind::Output:
            r = cts[op.args[0]];
            break;
        }
        releaseOperands(i);
        // Canonical scale: the projected program runs at clamped
        // depth, so real scale tracking is meaningless; forcing the
        // context scale keeps every add/multiply guard satisfied and
        // is itself deterministic.
        r.scale = scale;
        cts[i] = std::move(r);
    };

    HostRunResult res;
    const HomDepGraph g = buildHomDepGraph(prog);
    TaskGraph tg;
    for (std::uint32_t i = 0; i < prog.ops.size(); ++i) {
        std::vector<TaskGraph::TaskId> deps(prog.ops[i].args.begin(),
                                            prog.ops[i].args.end());
        tg.add([&execOp, i] { execOp(i); }, std::move(deps),
               homOpWeight(prog.ops[i]));
    }
    res.stats = tg.run(opts.mode, opts.threads);
    res.plaintexts = encodes.load();
    CL_ASSERT(res.stats.edges == g.edges,
              "task graph disagrees with the compiler dependence graph");

    res.digest = kFnvOffset;
    for (std::uint32_t i = 0; i < prog.ops.size(); ++i) {
        if (prog.ops[i].kind != HomOpKind::Output)
            continue;
        res.digest = digestCiphertext(res.digest, cts[i]);
        res.outputs.push_back(std::move(cts[i]));
    }
    return res;
}

} // namespace cl
