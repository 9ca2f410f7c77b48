#include "cpumodel.h"

#include <chrono>

#include "rns/ntt.h"
#include "rns/primes.h"
#include "util/prng.h"

namespace cl {

namespace {

double
timeLoop(const std::function<void()> &body, unsigned iters)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i)
        body();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

} // namespace

CpuKernelRates
measureCpuKernels()
{
    CpuKernelRates r;
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];

    // Standalone modular multiplies.
    {
        std::vector<u64> a(n), b(n);
        FastRng rng(1);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.nextBelow(q);
            b[i] = rng.nextBelow(q);
        }
        const unsigned iters = 400;
        volatile u64 sink = 0;
        const double secs = timeLoop(
            [&] {
                u64 acc = 0;
                for (std::size_t i = 0; i < n; ++i)
                    acc ^= mulMod(a[i], b[i], q);
                sink = acc;
            },
            iters);
        r.modmulPerSec = iters * static_cast<double>(n) / secs;
    }

    // NTT butterflies.
    {
        NttTables tables(n, q);
        std::vector<u64> a(n);
        FastRng rng(2);
        for (auto &v : a)
            v = rng.nextBelow(q);
        const unsigned iters = 100;
        const double secs = timeLoop([&] { tables.forward(a.data()); },
                                     iters);
        const double bflys =
            static_cast<double>(iters) * n / 2 * log2Exact(n);
        r.nttButterflyPerSec = bflys / secs;
    }

    // changeRNSBase-style multiply-accumulate (the CRB inner loop).
    {
        std::vector<u64> x(n), acc(n, 0);
        FastRng rng(3);
        for (auto &v : x)
            v = rng.nextBelow(q);
        const ShoupMul c(12345, q);
        const unsigned iters = 400;
        const double secs = timeLoop(
            [&] {
                for (std::size_t i = 0; i < n; ++i)
                    acc[i] = addMod(acc[i], c.mul(x[i], q), q);
            },
            iters);
        r.macPerSec = iters * static_cast<double>(n) / secs;
    }
    return r;
}

namespace {

/**
 * One op's work under the CPU model, in residue-vector passes
 * (util/opcost.h). It prices a rescale as CPU libraries run it,
 * round-tripping every kept tower through the coefficient domain (2lo
 * INTTs on top of the chip's NTTs). It follows the chip where CPU
 * libraries do: single-prime digits lift without MACs, and the q̂⁻¹
 * scaling is folded into the conversion.
 */
struct CpuOpCost
{
    double ntts = 0;
    double macs = 0;
    double muls = 0;
    double addMuls = 0;   ///< Adds, in multiply-equivalents.
    double hintWords = 0; ///< Hint words streamed in.
};

CpuOpCost
cpuOpCost(const HomOp &op, std::size_t n)
{
    const HomOpCost c = homOpCost(op, n);
    const opcost::KeySwitch &k = c.ks;
    // A level drop is priced as a rescale.
    const opcost::Rescale r =
        op.kind == HomOpKind::LevelDrop && op.outLevel < op.level
            ? opcost::rescale(op.level, op.outLevel)
            : c.rescale;
    const u64 rescale_round_trip = r.keptNtts;
    // Adds are ~4x cheaper than muls; either add kind is charged one
    // per ciphertext tower.
    return {static_cast<double>(k.chipNtts() + r.chipNtts() +
                                rescale_round_trip + c.raise.ntts),
            static_cast<double>(k.chipCrbMacs() + c.raise.macs),
            static_cast<double>(k.chipMuls() + c.tensor.muls + c.plainMuls),
            c.adds > 0 ? 0.25 * op.level : 0.0,
            static_cast<double>(k.hintWords)};
}

} // namespace

double
CpuModel::scalarMultiplies(const HomProgram &hp)
{
    const double n = static_cast<double>(hp.n());
    const double logn = log2Exact(hp.n());
    double mults = 0;
    for (const HomOp &op : hp.ops) {
        const CpuOpCost c = cpuOpCost(op, hp.n());
        mults += (c.ntts * logn / 2 + c.macs + c.muls) * n;
    }
    return mults;
}

double
CpuModel::run(const HomProgram &hp) const
{
    const double n = static_cast<double>(hp.n());
    const double logn = log2Exact(hp.n());
    const double core_scale = params_.cores * params_.parallelEff;

    double compute = 0; // seconds
    double traffic = 0; // bytes
    const double bytes_per_word = 8; // CPU libraries use 64-bit words

    for (const HomOp &op : hp.ops) {
        const CpuOpCost c = cpuOpCost(op, hp.n());
        traffic += c.hintWords * bytes_per_word; // hint streamed in
        // Every op streams its ciphertext operands through the cache
        // hierarchy at least once (tens-of-MB ciphertexts do not fit).
        traffic += 2.0 * 2.0 * op.level * n * bytes_per_word;

        compute += c.ntts * (n / 2 * logn) / rates_.nttButterflyPerSec +
                   c.macs * n / rates_.macPerSec +
                   (c.muls + c.addMuls) * n / rates_.modmulPerSec;
    }

    const double compute_time = compute / core_scale;
    const double mem_time = traffic / params_.memBandwidth;
    return std::max(compute_time, mem_time);
}

} // namespace cl
