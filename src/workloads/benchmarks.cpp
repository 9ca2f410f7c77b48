#include "benchmarks.h"

#include <cmath>

namespace cl {

SecurityConfig
SecurityConfig::bits80()
{
    return SecurityConfig{};
}

SecurityConfig
SecurityConfig::bits128()
{
    SecurityConfig s;
    s.name = "128-bit";
    s.lMax = 43;        // lower log Q for the same N
    s.usableLevels = 11; // bootstrap twice as often (Sec 9.4)
    s.policy = digitPolicy128();
    return s;
}

SecurityConfig
SecurityConfig::bits200()
{
    SecurityConfig s;
    s.name = "200-bit";
    s.logN = 17; // N = 128K (Sec 9.4)
    s.lMax = 57;
    s.usableLevels = 22;
    s.policy = digitPolicy200();
    return s;
}

namespace {

/** Configure the builder's bootstrap structure for a security level. */
void
configureBootstrap(HomBuilder &b, const SecurityConfig &sec)
{
    // The shape's CtS/StC stages run at double scale; EvalMod gets
    // the rest of the bootstrap budget.
    b.evalModLevels = sec.lMax - sec.usableLevels -
                      2 * (b.shape.ctsStages + b.shape.stcStages);
    CL_ASSERT(b.bootLevels() == sec.lMax - sec.usableLevels,
              "bootstrap depth mismatch: ", b.bootLevels(), " vs ",
              sec.lMax - sec.usableLevels);
}

/** Bootstrap when fewer than `need` levels remain. */
HomBuilder::Ct
ensureBudget(HomBuilder &b, HomBuilder::Ct ct, unsigned need,
             unsigned &bootstraps)
{
    if (ct.level <= need) {
        ct = b.bootstrap(ct);
        ++bootstraps;
    }
    CL_ASSERT(ct.level > need, "bootstrap left too few levels: ",
              ct.level, " <= ", need);
    return ct;
}

/** Degree-3 polynomial activation (LSTM sigma, HELR sigmoid):
 *  two ct-ct multiplies at double scale. */
HomBuilder::Ct
degree3Activation(HomBuilder &b, HomBuilder::Ct x)
{
    HomBuilder::Ct x2 = b.mul(x, x, 2);
    HomBuilder::Ct x_aligned = b.levelDrop(x, x2.level);
    HomBuilder::Ct x3 = b.mul(x2, x_aligned, 2);
    HomBuilder::Ct lin = b.levelDrop(x, x3.level);
    return b.add(x3, lin);
}

} // namespace

HomProgram
packedBootstrapping(const SecurityConfig &sec)
{
    HomBuilder b("packed-bootstrapping", sec.logN, sec.lMax, sec.policy);
    configureBootstrap(b, sec);
    auto ct = b.input(3); // exhausted ciphertext, L=3
    auto out = b.bootstrap(ct);
    b.output(out);
    return b.take();
}

HomProgram
unpackedBootstrapping()
{
    // Single-slot bootstrapping (the F1 benchmark): the linear
    // transforms degenerate to a handful of rotations, EvalMod stays.
    HomBuilder b("unpacked-bootstrapping", 16, 23, digitPolicy80());
    b.shape.ctsStages = 1;
    b.shape.stcStages = 1;
    b.diagsPerStage = 2;
    b.evalModMuls = 8;
    b.evalModLevels = 12;
    auto ct = b.input(2);
    auto out = b.bootstrap(ct);
    b.output(out);
    return b.take();
}

HomProgram
lstm(const SecurityConfig &sec, unsigned steps)
{
    HomBuilder b("lstm", sec.logN, sec.lMax, sec.policy);
    configureBootstrap(b, sec);
    // Per time step: two 128x128 matrix-vector products (3 levels at
    // the 84-bit working scale), a degree-7 activation (9 levels),
    // and the output projection (3) — the step consumes the whole
    // usable budget, so each of the `steps` tokens bootstraps once
    // (50 bootstrappings per inference, Sec 8).
    unsigned bootstraps = 0;

    auto h = b.input(sec.lMax - b.bootLevels());
    for (unsigned step = 0; step < steps; ++step) {
        // Each phase refreshes the budget it needs, so the same
        // program adapts to the shallower 128-bit chains (which
        // bootstrap twice as often, Sec 9.4).
        h = ensureBudget(b, h, 3, bootstraps);
        auto x = b.input(h.level);
        // The recurrent weights are the same every step — the hint
        // and weight reuse this enables is central to the benchmark.
        auto wh = b.linearTransform(h, 128, "W0", 3);
        auto wx = b.linearTransform(x, 128, "W1", 3);
        auto pre = b.add(wh, wx);
        // Degree-7 sigma: three squarings/mults at the working scale.
        auto y = pre;
        for (unsigned m = 0; m < 3; ++m) {
            y = ensureBudget(b, y, 3, bootstraps);
            y = b.mul(y, y, 3);
        }
        // Output projection.
        y = ensureBudget(b, y, 3, bootstraps);
        h = b.linearTransform(y, 128, "Wp", 3);
    }
    b.output(h);
    return b.take();
}

HomProgram
resnet20(const SecurityConfig &sec)
{
    HomBuilder b("resnet-20", sec.logN, sec.lMax, sec.policy);
    configureBootstrap(b, sec);
    unsigned bootstraps = 0;

    // Channel widths of the three ResNet-20 stages.
    const unsigned channels[3] = {16, 32, 64};

    auto act = b.input(sec.lMax - b.bootLevels());

    // Polynomial ReLU [47]: composite minimax polynomial (three
    // factors of degrees 15/15/27), ~12 double-scale multiplies.
    auto relu = [&](HomBuilder::Ct x, const std::string &tag) {
        auto y = x;
        for (unsigned i = 0; i < 14; ++i) {
            y = ensureBudget(b, y, 2, bootstraps);
            auto y2 = b.mul(y, y, 2);
            y = b.addPlain(y2, tag + ".c" + std::to_string(i));
        }
        return y;
    };

    unsigned layer = 0;
    auto conv = [&](HomBuilder::Ct x, unsigned ch) {
        // 3x3 convolution over a fully packed tensor: one BSGS
        // linear transform whose diagonal count grows with channel
        // mixing (9 taps x channel groups).
        const unsigned diags = 9 * std::max(1u, ch / 8);
        x = ensureBudget(b, x, 2 + 2, bootstraps);
        auto y = b.linearTransform(
            x, diags, "conv" + std::to_string(layer), 2);
        // Channel reduction: log2(ch) rotate-and-add steps (the
        // packed layout accumulates partial channel sums).
        for (unsigned r = 0; (1u << r) < ch; ++r)
            y = b.add(y, b.rotate(y, 1 << (r + 5)));
        // Batch norm folds into a plaintext multiply-add.
        y = b.mulPlain(y, "bn" + std::to_string(layer), 2);
        ++layer;
        return y;
    };

    // conv1 + 18 residual-block convs + shortcuts.
    act = conv(act, channels[0]);
    act = relu(act, "relu0");
    for (unsigned stage = 0; stage < 3; ++stage) {
        for (unsigned block = 0; block < 3; ++block) {
            auto in = act;
            act = conv(act, channels[stage]);
            act = relu(act, "r" + std::to_string(stage * 3 + block) + "a");
            act = conv(act, channels[stage]);
            // Shortcut add (align both paths to the lower level; a
            // mid-block bootstrap can leave `act` above `in`).
            const unsigned join = std::min(in.level, act.level);
            auto sc = b.levelDrop(in, join);
            act = b.levelDrop(act, join);
            act = b.add(act, sc);
            act = relu(act, "r" + std::to_string(stage * 3 + block) + "b");
        }
    }

    // Average pool (log-rotations) + final dense layer.
    act = ensureBudget(b, act, 4, bootstraps);
    for (unsigned i = 0; i < 6; ++i)
        act = b.add(act, b.rotate(act, 1 << i));
    act = b.mulPlain(act, "poolscale", 2);
    act = ensureBudget(b, act, 2, bootstraps);
    act = b.linearTransform(act, 64, "fc", 2);
    b.output(act);
    return b.take();
}

HomProgram
logisticRegression(const SecurityConfig &sec, unsigned iterations)
{
    HomBuilder b("logreg-helr", sec.logN, sec.lMax, sec.policy);
    configureBootstrap(b, sec);
    unsigned bootstraps = 0;

    // HELR: 256 features, 256 samples per batch; X encrypted.
    auto w = b.input(38); // paper: starts at computational depth L=38
    for (unsigned it = 0; it < iterations; ++it) {
        const unsigned need = 2 + 4 + 2; // Xw, sigmoid, gradient
        w = ensureBudget(b, w, need, bootstraps);
        auto x_batch = b.input(w.level);

        // Xw: inner products via rotate-and-accumulate over the
        // 256-feature dimension.
        auto xw = b.mul(x_batch, w, 2);
        for (unsigned r = 0; r < 8; ++r) {
            xw = b.add(xw, b.rotate(xw, 1 << r));
            xw = b.add(xw, b.rotate(xw, -(1 << r)));
        }

        auto sig = degree3Activation(b, xw);

        // Gradient: X^T sig, again rotate-and-accumulate, then a
        // learning-rate plaintext multiply and the weight update.
        auto x_aligned = b.levelDrop(x_batch, sig.level);
        auto grad = b.mul(sig, x_aligned, 2);
        for (unsigned r = 0; r < 8; ++r)
            grad = b.add(grad, b.rotate(grad, 256 << r));
        grad = b.mulPlain(grad, "lr" + std::to_string(it % 2), 0);
        w = b.levelDrop(w, grad.level);
        w = b.add(w, grad);
    }
    b.output(w);
    return b.take();
}

HomProgram
lolaMnist(bool encrypted_weights)
{
    // LoLa-MNIST: LeNet-style, N=16K, no bootstrapping, max L 4-8.
    HomBuilder b(encrypted_weights ? "lola-mnist-ew" : "lola-mnist-uw",
                 14, 8, [](unsigned) { return 1u; });
    auto x = b.input(8);

    // Shallow networks run at single-prime scale per multiply (the
    // LoLa models tolerate low precision).
    if (encrypted_weights) {
        // Conv as 25 ct-ct multiply-accumulates with rotations.
        auto acc = b.mul(x, b.input(8), 1);
        for (unsigned i = 1; i < 25; ++i) {
            auto t = b.mul(b.rotate(x, static_cast<int>(i)),
                           b.input(8), 1);
            acc = b.add(acc, t);
        }
        auto s1 = b.mul(acc, acc, 1); // square activation
        // Dense 100: rotate-accumulate inner products.
        auto d = b.mul(s1, b.input(s1.level), 1);
        for (unsigned r = 0; r < 7; ++r)
            d = b.add(d, b.rotate(d, 1 << r));
        b.output(d);
    } else {
        auto c1 = b.linearTransform(x, 25, "conv1", 1);
        auto s1 = b.mul(c1, c1, 1);
        auto d1 = b.linearTransform(s1, 64, "fc1", 1);
        auto s2 = b.mul(d1, d1, 1);
        auto d2 = b.linearTransform(s2, 10, "fc2", 1);
        b.output(d2);
    }
    return b.take();
}

HomProgram
lolaCifar()
{
    // LoLa-CIFAR (unencrypted weights): 6 layers, weight-heavy linear
    // transforms; the working set is dominated by plaintext weights
    // (Fig 10a: ~8 GB of traffic, mostly inputs/weights).
    HomBuilder b("lola-cifar-uw", 14, 8, [](unsigned) { return 1u; });
    const unsigned diags[6] = {5600, 5600, 4000, 2800, 1800, 800};
    auto x = b.input(8);
    for (unsigned layer = 0; layer < 6; ++layer) {
        x = b.linearTransform(x, diags[layer],
                              "w" + std::to_string(layer), 1);
        if (layer == 1)
            x = b.mul(x, x, 1); // square activation
    }
    b.output(x);
    return b.take();
}

HomProgram
multiplicationChain(unsigned l_max, unsigned depth)
{
    HomBuilder b("mult-chain-L" + std::to_string(l_max), 16, l_max,
                 digitPolicy80());
    CL_ASSERT(l_max > b.bootLevels() + 2, "chain too shallow to bootstrap");
    unsigned bootstraps = 0;
    auto ct = b.input(l_max - b.bootLevels());
    for (unsigned d = 0; d < depth; ++d) {
        ct = ensureBudget(b, ct, 2, bootstraps);
        ct = b.mul(ct, ct, 2);
    }
    b.output(ct);
    return b.take();
}

HomProgram
wideMultiplyGraph(unsigned l_max, unsigned depth, unsigned width)
{
    HomBuilder b("wide-graph-L" + std::to_string(l_max), 16, l_max,
                 digitPolicy80());
    CL_ASSERT(l_max > b.bootLevels() + 2, "graph too shallow to bootstrap");
    unsigned bootstraps = 0;
    auto ct = b.input(l_max - b.bootLevels());
    for (unsigned d = 0; d < depth; ++d) {
        ct = ensureBudget(b, ct, 2, bootstraps);
        // `width` multiplies at this level, converging to one output.
        auto acc = b.mul(ct, b.input(ct.level), 2);
        for (unsigned w = 1; w < width; ++w) {
            auto t = b.mul(ct, b.input(ct.level), 2);
            acc = b.add(acc, t);
        }
        ct = acc;
    }
    b.output(ct);
    return b.take();
}

std::vector<NamedProgram>
benchmarkSuite(const SecurityConfig &sec)
{
    std::vector<NamedProgram> suite;
    suite.push_back({"ResNet-20", resnet20(sec), true});
    suite.push_back({"Logistic Regression", logisticRegression(sec), true});
    suite.push_back({"LSTM", lstm(sec), true});
    suite.push_back({"Packed Bootstrapping", packedBootstrapping(sec),
                     true});
    suite.push_back({"Unpacked Bootstrapping", unpackedBootstrapping(),
                     false});
    suite.push_back({"CIFAR Unencryp. Wghts.", lolaCifar(), false});
    suite.push_back({"MNIST Unencryp. Wghts.", lolaMnist(false), false});
    suite.push_back({"MNIST Encryp. Wghts.", lolaMnist(true), false});
    return suite;
}

std::vector<std::string>
benchmarkNames()
{
    return {"resnet20",    "logreg",     "lstm",       "boot-packed",
            "boot-unpacked", "lola-cifar", "lola-mnist",
            "lola-mnist-ew"};
}

HomProgram
benchmarkByName(const std::string &name, const SecurityConfig &sec)
{
    if (name == "resnet20")
        return resnet20(sec);
    if (name == "logreg")
        return logisticRegression(sec);
    if (name == "lstm")
        return lstm(sec);
    if (name == "boot-packed")
        return packedBootstrapping(sec);
    if (name == "boot-unpacked")
        return unpackedBootstrapping();
    if (name == "lola-cifar")
        return lolaCifar();
    if (name == "lola-mnist")
        return lolaMnist(false);
    if (name == "lola-mnist-ew")
        return lolaMnist(true);
    std::string valid;
    for (const std::string &n : benchmarkNames())
        valid += (valid.empty() ? "" : ", ") + n;
    CL_FATAL("unknown benchmark '", name, "'; valid: ", valid);
}

} // namespace cl
