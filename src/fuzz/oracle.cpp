/**
 * @file
 * The three-way differential oracle (see fuzzer.h for the contract).
 *
 * Counter discipline: all encode/encrypt work happens before the
 * counters are reset, so the OpCounter-vs-instrumentation comparison
 * covers exactly the Evaluator calls the program performs — a charge
 * missing from any Evaluator method, or real kernel work an Evaluator
 * method performs without charging, shows up as an exact-count diff.
 */

#include "fuzz/fuzzer.h"

#include <cmath>
#include <sstream>

#include "compiler/lower.h"
#include "util/instrument.h"
#include "verify/verifier.h"

namespace cl {

namespace {

/** Random complex slot values with |re|,|im| <= 1 (|z| <= sqrt(2),
 *  inside the generator's 1.5 magnitude bound). */
std::vector<Complex>
slotValues(std::uint64_t seed, std::size_t slots)
{
    FastRng rng(seed);
    std::vector<Complex> v(slots);
    for (auto &z : v)
        z = Complex(rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1);
    return v;
}

std::string
describeCounterDiff(const OpCounter &model, const KernelCounts &meas)
{
    std::ostringstream os;
    os << "OpCounter/instrumentation mismatch:"
       << " polyMults " << model.polyMults << " vs " << meas.mults
       << ", polyAdds " << model.polyAdds << " vs " << meas.adds
       << ", ntts " << model.ntts << " vs " << meas.ntts
       << ", automorphisms " << model.automorphisms << " vs "
       << meas.automorphisms;
    return os.str();
}

/** Relative task weight of one op (mirrors homOpWeight): heights
 *  steer the graph ready queue, they never change what runs. */
std::uint64_t
genOpWeight(GenKind k)
{
    switch (k) {
    case GenKind::Mul:
        return 12;
    case GenKind::Rotate:
    case GenKind::Conjugate:
        return 10;
    case GenKind::ModRaise:
        return 6;
    case GenKind::Rescale:
    case GenKind::MulPlain:
        return 3;
    default:
        return 1;
    }
}

bool
polyEqual(const RnsPoly &a, const RnsPoly &b)
{
    return a.towers() == b.towers() && a.modIdx() == b.modIdx() &&
           a.isNtt() == b.isNtt() && a.data() == b.data();
}

bool
ctEqual(const Ciphertext &a, const Ciphertext &b)
{
    return a.scale == b.scale && polyEqual(a.c0, b.c0) &&
           polyEqual(a.c1, b.c1);
}

} // namespace

OracleResult
runOracle(const FuzzEnv &env, const GenProgram &prog,
          const OracleOptions &opts)
{
    OracleResult res;
    std::string why;
    const auto tracked = checkLegal(env, prog, &why);
    if (!tracked) {
        res.ok = false;
        res.failure = "illegal program: " + why;
        return res;
    }

    const CkksContext &ctx = env.ctx();
    const CkksEncoder &enc = env.encoder();
    const Evaluator &eval = env.evaluator();
    const std::size_t slots = ctx.slots();
    const bool mod_raise = prog.hasModRaise();

    // ---- Stage 0: pre-encode plaintexts and pre-encrypt inputs (all
    //      the work the counter cross-check must NOT see). ----
    Encryptor encryptor(ctx, env.publicKey(), prog.seed ^ 0x656e63ULL);
    Decryptor decryptor(ctx, env.secretKey());
    std::vector<Ciphertext> cts(prog.ops.size());
    std::vector<RnsPoly> plains;
    std::vector<int> plainOf(prog.ops.size(), -1);
    std::vector<std::vector<Complex>> clear(prog.ops.size());

    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
        const GenOp &op = prog.ops[i];
        const TrackedValue &tv = (*tracked)[i];
        switch (op.kind) {
          case GenKind::Input: {
            clear[i] = slotValues(op.valueSeed, slots);
            RnsPoly pt = enc.encode(clear[i], tv.scale, tv.level);
            cts[i] = encryptor.encrypt(pt, tv.scale);
            break;
          }
          case GenKind::AddPlain:
          case GenKind::SubPlain: {
            // Encoded at the operand's exact level and scale so the
            // scale-checked addPlain overload accepts it.
            const TrackedValue &av = (*tracked)[op.a];
            plainOf[i] = static_cast<int>(plains.size());
            plains.push_back(enc.encode(slotValues(op.valueSeed, slots),
                                        av.scale, av.level));
            break;
          }
          case GenKind::MulPlain: {
            const TrackedValue &av = (*tracked)[op.a];
            plainOf[i] = static_cast<int>(plains.size());
            plains.push_back(enc.encode(slotValues(op.valueSeed, slots),
                                        env.contextScale(), av.level));
            break;
          }
          default:
            break;
        }
    }

    // ---- Stage 1: execute through the Evaluator between counter
    //      snapshots; cross-check level/scale after every op. Every
    //      requested execution mode runs the whole program between its
    //      own snapshots; later modes must reproduce the first mode's
    //      ciphertext bits and counter totals exactly. ----
    auto fail_at = [&](std::size_t i, const std::string &msg) {
        res.ok = false;
        res.failOp = static_cast<int>(i);
        res.failKind = prog.ops[i].kind;
        res.failure = "op " + std::to_string(i) + " (" +
                      genKindName(prog.ops[i].kind) + "): " + msg;
    };

    // Ciphertext leg for one op, into an arbitrary result vector.
    // Safe to run concurrently for independent i: each call writes
    // only out[i] and reads retired operands (plains are read-only).
    auto execCipher = [&](std::vector<Ciphertext> &out, std::size_t i) {
        const GenOp &op = prog.ops[i];
        switch (op.kind) {
          case GenKind::Input:
            break; // pre-encrypted in stage 0
          case GenKind::Add:
            out[i] = eval.add(out[op.a], out[op.b]);
            break;
          case GenKind::Sub:
            out[i] = eval.sub(out[op.a], out[op.b]);
            break;
          case GenKind::AddPlain:
            out[i] = eval.addPlain(out[op.a], plains[plainOf[i]],
                                   (*tracked)[op.a].scale);
            break;
          case GenKind::SubPlain:
            out[i] = eval.subPlain(out[op.a], plains[plainOf[i]],
                                   (*tracked)[op.a].scale);
            break;
          case GenKind::MulPlain:
            out[i] = eval.mulPlain(out[op.a], plains[plainOf[i]],
                                   env.contextScale());
            break;
          case GenKind::Mul:
            out[i] = eval.multiply(out[op.a], out[op.b], env.relinKey());
            break;
          case GenKind::Rescale:
            out[i] = out[op.a];
            eval.rescale(out[i]);
            break;
          case GenKind::Rotate:
            out[i] = eval.rotate(out[op.a], op.steps, env.galoisKeys());
            break;
          case GenKind::Conjugate:
            out[i] = eval.conjugate(out[op.a], env.galoisKeys());
            break;
          case GenKind::LevelDrop:
            out[i] = out[op.a];
            eval.levelDrop(out[i], (*tracked)[i].level);
            break;
          case GenKind::ModRaise:
            out[i] = eval.modRaise(out[op.a], (*tracked)[i].level);
            break;
          case GenKind::Output:
            out[i] = out[op.a];
            break;
        }
    };

    // The cleartext slot model is execution-mode-independent: run it
    // once, serially (Input slots were filled in stage 0).
    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
        const GenOp &op = prog.ops[i];
        switch (op.kind) {
          case GenKind::Input:
            break;
          case GenKind::Add:
            for (std::size_t s = 0; s < slots; ++s)
                clear[i].push_back(clear[op.a][s] + clear[op.b][s]);
            break;
          case GenKind::Sub:
            for (std::size_t s = 0; s < slots; ++s)
                clear[i].push_back(clear[op.a][s] - clear[op.b][s]);
            break;
          case GenKind::AddPlain: {
            const auto pv = slotValues(op.valueSeed, slots);
            for (std::size_t s = 0; s < slots; ++s)
                clear[i].push_back(clear[op.a][s] + pv[s]);
            break;
          }
          case GenKind::SubPlain: {
            const auto pv = slotValues(op.valueSeed, slots);
            for (std::size_t s = 0; s < slots; ++s)
                clear[i].push_back(clear[op.a][s] - pv[s]);
            break;
          }
          case GenKind::MulPlain: {
            const auto pv = slotValues(op.valueSeed, slots);
            for (std::size_t s = 0; s < slots; ++s)
                clear[i].push_back(clear[op.a][s] * pv[s]);
            break;
          }
          case GenKind::Mul:
            for (std::size_t s = 0; s < slots; ++s)
                clear[i].push_back(clear[op.a][s] * clear[op.b][s]);
            break;
          case GenKind::Rotate: {
            const long n = static_cast<long>(slots);
            for (long s = 0; s < n; ++s)
                clear[i].push_back(
                    clear[op.a][(s + n + op.steps) % n]);
            break;
          }
          case GenKind::Conjugate:
            for (std::size_t s = 0; s < slots; ++s)
                clear[i].push_back(std::conj(clear[op.a][s]));
            break;
          case GenKind::Rescale:
          case GenKind::LevelDrop:
          case GenKind::Output:
            clear[i] = clear[op.a];
            break;
          case GenKind::ModRaise:
            clear[i] = clear[op.a]; // poisoned; never value-checked
            break;
        }
    }

    OpCounter refModel; // first mode's totals, for cross-mode checks
    for (std::size_t m = 0; m < opts.execModes.size() && res.ok; ++m) {
        const ExecMode mode = opts.execModes[m];
        // First mode executes straight into cts (whose Input entries
        // stage 0 filled); later modes get a fresh vector seeded with
        // the same inputs and are diffed against cts afterwards.
        std::vector<Ciphertext> alt;
        if (m > 0) {
            alt.resize(prog.ops.size());
            for (std::size_t i = 0; i < prog.ops.size(); ++i)
                if (prog.ops[i].kind == GenKind::Input)
                    alt[i] = cts[i];
        }
        std::vector<Ciphertext> &out = m == 0 ? cts : alt;

        ctx.ops().reset();
        kernelCounters().reset();
        if (mode == ExecMode::Serial) {
            for (std::size_t i = 0; i < prog.ops.size(); ++i)
                execCipher(out, i);
        } else {
            TaskGraph g;
            for (std::size_t i = 0; i < prog.ops.size(); ++i) {
                const GenOp &op = prog.ops[i];
                std::vector<TaskGraph::TaskId> deps;
                if (op.a >= 0)
                    deps.push_back(static_cast<TaskGraph::TaskId>(op.a));
                if (op.b >= 0)
                    deps.push_back(static_cast<TaskGraph::TaskId>(op.b));
                g.add([&out, &execCipher, i] { execCipher(out, i); },
                      std::move(deps), genOpWeight(op.kind));
            }
            g.run(mode);
        }
        const OpCounter model = ctx.ops();
        const KernelCounts meas = kernelCounters().snapshot();

        // Post-hoc per-op checks (results are final once a task
        // retires, so checking after the run is equivalent to the old
        // inline checks and stays off the workers' hot path).
        for (std::size_t i = 0; i < prog.ops.size() && res.ok; ++i) {
            const GenOp &op = prog.ops[i];
            const TrackedValue &tv = (*tracked)[i];
            if (op.kind == GenKind::Input || op.kind == GenKind::Output)
                continue;
            if (out[i].level() != tv.level) {
                fail_at(i, "level tracking mismatch: evaluator " +
                               std::to_string(out[i].level()) +
                               ", tracker " + std::to_string(tv.level));
            } else if (out[i].scale != tv.scale) {
                std::ostringstream os;
                os.precision(17);
                os << "scale tracking mismatch: evaluator "
                   << out[i].scale << ", tracker " << tv.scale;
                fail_at(i, os.str());
            }
        }
        if (res.ok && (model.polyMults != meas.mults ||
                       model.polyAdds != meas.adds ||
                       model.ntts != meas.ntts ||
                       model.automorphisms != meas.automorphisms)) {
            res.ok = false;
            res.failure = describeCounterDiff(model, meas);
        }

        if (m == 0) {
            refModel = model;
            continue;
        }
        for (std::size_t i = 0; i < prog.ops.size() && res.ok; ++i) {
            if (!ctEqual(out[i], cts[i]))
                fail_at(i, std::string("exec divergence: ") +
                               execModeName(mode) +
                               " ciphertext differs from " +
                               execModeName(opts.execModes[0]));
        }
        if (res.ok &&
            (model.polyMults != refModel.polyMults ||
             model.polyAdds != refModel.polyAdds ||
             model.ntts != refModel.ntts ||
             model.automorphisms != refModel.automorphisms ||
             model.decomposes != refModel.decomposes ||
             model.innerProducts != refModel.innerProducts ||
             model.modDowns != refModel.modDowns)) {
            res.ok = false;
            res.failure =
                std::string("exec counter divergence: ") +
                execModeName(mode) + " charged different totals than " +
                execModeName(opts.execModes[0]);
        }
    }

    // ---- Stage 2 (leg a): decrypt every output and bound the error
    //      against the cleartext slot model. ModRaise programs skip
    //      this (decrypt is m + k·q0 by design). ----
    if (res.ok && opts.functional && !mod_raise) {
        res.functionalRan = true;
        for (std::size_t i = 0; i < prog.ops.size() && res.ok; ++i) {
            if (prog.ops[i].kind != GenKind::Output)
                continue;
            const Ciphertext &ct = cts[i];
            const auto got =
                enc.decode(decryptor.decrypt(ct), ct.scale);
            double err = 0;
            for (std::size_t s = 0; s < slots; ++s)
                err = std::max(err, std::abs(got[s] - clear[i][s]));
            res.maxError = std::max(res.maxError, err);
            const double tol = opts.tolScale * 1e-2 *
                               std::max(1.0, (*tracked)[i].mag);
            if (err > tol) {
                std::ostringstream os;
                os << "decrypt error " << err << " exceeds bound "
                   << tol;
                fail_at(i, os.str());
            }
        }
    }

    // ---- Stage 3 (leg c): lower, simulate, verify. ----
    if (res.ok && opts.structural) {
        HomBuilder builder("fuzz", ctx.params().logN, env.lMax());
        std::vector<HomBuilder::Ct> hct(prog.ops.size());
        for (std::size_t i = 0; i < prog.ops.size() && res.ok; ++i) {
            const GenOp &op = prog.ops[i];
            const std::string pid = "p" + std::to_string(i);
            switch (op.kind) {
              case GenKind::Input:
                hct[i] = builder.input((*tracked)[i].level);
                break;
              case GenKind::Add:
              case GenKind::Sub:
                // Sub lowers as Add: one elementwise pass, identical
                // instruction shape and cost.
                hct[i] = builder.add(hct[op.a], hct[op.b]);
                break;
              case GenKind::AddPlain:
              case GenKind::SubPlain:
                hct[i] = builder.addPlain(hct[op.a], pid);
                break;
              case GenKind::MulPlain:
                hct[i] = builder.mulPlain(hct[op.a], pid, 0);
                break;
              case GenKind::Mul:
                hct[i] = builder.mul(hct[op.a], hct[op.b], 0);
                break;
              case GenKind::Rescale:
                hct[i] = builder.rescale(hct[op.a], 1);
                break;
              case GenKind::Rotate:
                hct[i] = builder.rotate(hct[op.a], op.steps);
                break;
              case GenKind::Conjugate:
                hct[i] = builder.conjugate(hct[op.a]);
                break;
              case GenKind::LevelDrop:
                hct[i] = builder.levelDrop(hct[op.a],
                                           (*tracked)[i].level);
                break;
              case GenKind::ModRaise:
                hct[i] = builder.modRaise(hct[op.a],
                                          (*tracked)[i].level);
                break;
              case GenKind::Output:
                builder.output(hct[op.a]);
                hct[i] = hct[op.a];
                break;
            }
            if (hct[i].level != (*tracked)[i].level) {
                fail_at(i, "compiler level mismatch: builder " +
                               std::to_string(hct[i].level) +
                               ", tracker " +
                               std::to_string((*tracked)[i].level));
            }
        }

        if (res.ok) {
            const HomProgram hp = builder.take();
            // Op conservation: every Mul/Rotate/Conjugate is exactly
            // one keyswitch, nothing else keyswitches.
            const std::uint64_t want_ksw =
                hp.countKind(HomOpKind::Mul) +
                hp.countKind(HomOpKind::Rotate) +
                hp.countKind(HomOpKind::Conjugate);
            for (const std::string &name : opts.chipConfigs) {
                const ChipConfig cfg = ChipConfig::byName(name);
                for (ScheduleMode mode : opts.scheduleModes) {
                    const std::string where =
                        name + "/" + scheduleModeName(mode);
                    Lowering lowering(cfg, mode);
                    const Program vp = lowering.lower(hp);
                    const LowerStats &ls = lowering.stats();
                    if (ls.keyswitches != want_ksw) {
                        res.ok = false;
                        res.failure =
                            "keyswitch conservation failed on " +
                            where + ": lowered " +
                            std::to_string(ls.keyswitches) +
                            ", program has " +
                            std::to_string(want_ksw);
                        break;
                    }
                    // FU-work conservation: no NTT (or, where the CRB
                    // takes every change-base MAC, CRB) work is emitted
                    // uncharged or charged unemitted.
                    std::uint64_t ntt = 0, crb = 0;
                    for (const PolyInst &inst : vp.insts) {
                        for (const FuUse &f : inst.fus) {
                            ntt += f.type == FuType::Ntt ? f.laneOps : 0;
                            crb += f.type == FuType::Crb ? f.laneOps : 0;
                        }
                    }
                    if (ntt != ls.nttVectors * (hp.n() * hp.logN / 2) ||
                        (cfg.hasCrb && cfg.hasChaining &&
                         crb != ls.crbMacVectors * hp.n())) {
                        res.ok = false;
                        res.failure = "FU-work conservation failed on " +
                                      where + ": NTT/CRB work " +
                                      std::to_string(ntt) + "/" +
                                      std::to_string(crb);
                        break;
                    }
                    SimStats stats;
                    const VerifyReport report =
                        verifySchedule(cfg, vp, &stats);
                    res.simCycles =
                        std::max(res.simCycles, stats.cycles);
                    if (!report.ok()) {
                        res.ok = false;
                        res.failure =
                            "schedule verification failed on " +
                            where + ": " + report.summary(4);
                        break;
                    }
                }
                if (!res.ok)
                    break;
            }
        }
    }

    return res;
}

} // namespace cl
