/**
 * Tests for the static list scheduler (compiler/schedule.h): the
 * reordered program must be a permutation of the emission order with
 * identical per-instruction semantics, verify clean under the
 * independent schedule verifier, never cost cycles relative to the
 * emission order, and come out byte-identical regardless of the host
 * thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "compiler/lower.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "verify/verifier.h"
#include "workloads/benchmarks.h"

namespace cl {
namespace {

Program
lowerBench(const std::string &bench, const ChipConfig &cfg,
           ScheduleMode mode)
{
    const HomProgram hp =
        benchmarkByName(bench, SecurityConfig::bits80());
    Lowering lower(cfg, mode);
    return lower.lower(hp);
}

/** Memoized lowering: scheduling the large benchmarks is the
 *  expensive part of this suite, so each (bench, config, mode)
 *  triple is lowered once and shared across tests. */
const Program &
cached(const std::string &bench, const std::string &config,
       ScheduleMode mode)
{
    static std::map<std::string, Program> cache;
    const std::string key =
        bench + "/" + config + "/" + scheduleModeName(mode);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key, lowerBench(bench,
                                          ChipConfig::byName(config),
                                          mode))
                 .first;
    }
    return it->second;
}

/** Order-independent key of one instruction's semantics. Value ids
 *  are stable across scheduling (only instructions move), so the
 *  reads/writes lists are directly comparable. */
std::string
instKey(const PolyInst &pi)
{
    std::ostringstream os;
    os << instName(pi) << '|' << pi.n << '|' << pi.duration << '|'
       << pi.networkWords << '|' << pi.rfPorts << '|' << pi.rfWords;
    os << "|r";
    for (std::uint32_t v : pi.reads)
        os << ':' << v;
    os << "|w";
    for (std::uint32_t v : pi.writes)
        os << ':' << v;
    os << "|f";
    for (const FuUse &f : pi.fus)
        os << ':' << static_cast<unsigned>(f.type) << ','
           << f.units << ',' << f.laneOps;
    return os.str();
}

std::multiset<std::string>
semantics(const Program &p)
{
    std::multiset<std::string> keys;
    for (const PolyInst &pi : p.insts)
        keys.insert(instKey(pi));
    return keys;
}

/** Exact serialization of the instruction *stream* (order matters),
 *  for determinism checks. */
std::string
streamKey(const Program &p)
{
    std::ostringstream os;
    for (const PolyInst &pi : p.insts)
        os << pi.id << '!' << instKey(pi) << '\n';
    return os.str();
}

TEST(Schedule, PreservesInstructionSemantics)
{
    // The scheduler may only permute instructions: same count, same
    // multiset of (mnemonic, operands, FU usage), same value table.
    for (const std::string &bn : benchmarkNames()) {
        const Program &none = cached(bn, "craterlake",
                                     ScheduleMode::None);
        const Program &list = cached(bn, "craterlake",
                                     ScheduleMode::List);
        ASSERT_EQ(none.size(), list.size()) << bn;
        EXPECT_EQ(semantics(none), semantics(list)) << bn;
        ASSERT_EQ(none.values.size(), list.values.size()) << bn;
        for (std::size_t v = 0; v < none.values.size(); ++v) {
            EXPECT_EQ(none.values[v].kind, list.values[v].kind);
            EXPECT_EQ(none.values[v].words, list.values[v].words);
        }
        list.validate();
    }
}

TEST(Schedule, VerifierCleanAcrossConfigs)
{
    // Every scheduled benchmark must replay through the independent
    // verifier with zero violations, on the paper config and the
    // ablated ones (different RF sizes and FU mixes stress different
    // reorderings).
    for (const std::string &bn : benchmarkNames()) {
        for (const std::string &cn :
             {std::string("craterlake"), std::string("f1plus"),
              std::string("no-kshgen")}) {
            const Program &prog = cached(bn, cn, ScheduleMode::List);
            const ChipConfig cfg = ChipConfig::byName(cn);
            Simulator sim(cfg);
            TraceRecorder rec;
            const SimStats stats = sim.run(prog, &rec);
            ScheduleVerifier verifier(cfg, prog);
            const VerifyReport report =
                verifier.verify(rec.insts(), rec.residency(), stats);
            EXPECT_TRUE(report.ok())
                << bn << " x " << cn << ": " << report.summary();
        }
    }
}

TEST(Schedule, CyclesNeverRegress)
{
    // scheduleProgram measures both the emission order and its
    // candidates on the real simulator and ships the minimum, so
    // List must never cost cycles — and must actually win on
    // several craterlake benchmarks (the rest are proven stuck at
    // the memory-traffic floor; see EXPERIMENTS.md).
    unsigned improved = 0;
    for (const std::string &bn : benchmarkNames()) {
        const ChipConfig cfg = ChipConfig::craterLake();
        Simulator simN(cfg), simL(cfg);
        const std::uint64_t none =
            simN.run(cached(bn, "craterlake", ScheduleMode::None))
                .cycles;
        const std::uint64_t list =
            simL.run(cached(bn, "craterlake", ScheduleMode::List))
                .cycles;
        EXPECT_LE(list, none) << bn;
        improved += list < none;
    }
    EXPECT_GE(improved, 3u);
}

TEST(Schedule, DeterministicAcrossThreadCount)
{
    // The scheduler is single-threaded by design: the emitted stream
    // must be byte-identical whatever CL_THREADS says.
    setenv("CL_THREADS", "1", 1);
    const Program a =
        lowerBench("lola-mnist", ChipConfig::craterLake(),
                   ScheduleMode::List);
    setenv("CL_THREADS", "7", 1);
    const Program b =
        lowerBench("lola-mnist", ChipConfig::craterLake(),
                   ScheduleMode::List);
    unsetenv("CL_THREADS");
    EXPECT_EQ(streamKey(a), streamKey(b));
    // And re-running the identical lowering is also a fixed point.
    const Program c =
        lowerBench("lola-mnist", ChipConfig::craterLake(),
                   ScheduleMode::List);
    EXPECT_EQ(streamKey(a), streamKey(c));
}

TEST(Schedule, StatsReportReordering)
{
    const HomProgram hp =
        benchmarkByName("lola-mnist", SecurityConfig::bits80());
    Lowering lower(ChipConfig::craterLake(), ScheduleMode::List);
    const Program prog = lower.lower(hp);
    const ScheduleStats &ss = lower.scheduleStats();
    EXPECT_GT(ss.depEdges, prog.size()); // denser than a chain
    EXPECT_GT(ss.criticalPathCycles, 0u);
    EXPECT_LE(ss.moved, prog.size());
}

TEST(Schedule, ConsumerOrderViolationCaught)
{
    // The verifier cross-checks the value table's consumer lists and
    // producer links against the instruction stream — the data the
    // simulator's Belady manager plans future uses from. Scrambling
    // either must be flagged.
    const ChipConfig cfg = ChipConfig::craterLake();
    Program prog = cached("lola-mnist", "craterlake",
                          ScheduleMode::List);
    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats stats = sim.run(prog, &rec);

    // Reverse the consumer list of a multi-consumer value: Belady
    // would now see its uses in the wrong order.
    bool mutated = false;
    for (Value &v : prog.values) {
        if (v.consumers.size() >= 2 &&
            v.consumers.front() != v.consumers.back()) {
            std::reverse(v.consumers.begin(), v.consumers.end());
            mutated = true;
            break;
        }
    }
    ASSERT_TRUE(mutated);
    {
        ScheduleVerifier verifier(cfg, prog);
        const VerifyReport report =
            verifier.verify(rec.insts(), rec.residency(), stats);
        EXPECT_TRUE(report.has(ViolationKind::ConsumerOrder))
            << report.summary();
    }

    // And a stale producer link on a written value.
    Program prog2 = cached("lola-mnist", "craterlake",
                           ScheduleMode::List);
    bool relinked = false;
    for (Value &v : prog2.values) {
        if (v.producer >= 1) {
            v.producer -= 1;
            relinked = true;
            break;
        }
    }
    ASSERT_TRUE(relinked);
    {
        ScheduleVerifier verifier(cfg, prog2);
        const VerifyReport report =
            verifier.verify(rec.insts(), rec.residency(), stats);
        EXPECT_TRUE(report.has(ViolationKind::ConsumerOrder))
            << report.summary();
    }
}

} // namespace
} // namespace cl
