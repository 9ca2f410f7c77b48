/** Tests for the cycle-level simulator's resource and memory models. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.h"
#include "sim/unitpool.h"
#include "util/prng.h"

namespace cl {
namespace {

Program
singleInstProgram(std::uint64_t duration, unsigned fu_units = 1)
{
    Program p;
    p.name = "single";
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1 << 20, "in");
    const auto out = p.addValue(ValueKind::Output, 1 << 20, "out");
    PolyInst inst;
    inst.stage = "op";
    inst.n = p.n;
    inst.fus = {{FuType::Add, fu_units, 1 << 20}};
    inst.reads = {in};
    inst.writes = {out};
    inst.duration = duration;
    inst.rfPorts = 2;
    p.addInst(std::move(inst));
    return p;
}

TEST(Simulator, SingleInstructionLatency)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    Simulator sim(cfg);
    auto stats = sim.run(singleInstProgram(1000));
    // Total time = input load + compute (+ output store on the
    // decoupled memory timeline).
    EXPECT_GE(stats.cycles, 1000u);
    EXPECT_EQ(stats.fuBusy[static_cast<unsigned>(FuType::Add)], 1000u);
    EXPECT_EQ(stats.inputLoadWords, 1u << 20);
    EXPECT_EQ(stats.outputStoreWords, 1u << 20);
}

TEST(Simulator, IndependentOpsOverlapOnDifferentUnits)
{
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1024, "in");
    for (int i = 0; i < 2; ++i) {
        const auto out = p.addValue(ValueKind::Intermediate, 1024, "t");
        PolyInst inst;
        inst.stage = "op";
        inst.n = p.n;
        inst.fus = {{FuType::Add, 1, 1024}};
        inst.reads = {in};
        inst.writes = {out};
        inst.duration = 10000;
        inst.rfPorts = 2;
        p.addInst(std::move(inst));
    }
    ChipConfig cfg = ChipConfig::craterLake(); // 5 add units
    Simulator sim(cfg);
    auto stats = sim.run(p);
    // Two independent 10000-cycle ops on 5 units: ~10000, not 20000.
    EXPECT_LT(stats.cycles, 15000u);
}

TEST(Simulator, SameUnitSerializes)
{
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1024, "in");
    for (int i = 0; i < 3; ++i) {
        const auto out = p.addValue(ValueKind::Intermediate, 1024, "t");
        PolyInst inst;
        inst.stage = "crb";
        inst.n = p.n;
        inst.fus = {{FuType::Crb, 1, 1024}}; // only one CRB exists
        inst.reads = {in};
        inst.writes = {out};
        inst.duration = 10000;
        inst.rfPorts = 2;
        p.addInst(std::move(inst));
    }
    Simulator sim(ChipConfig::craterLake());
    auto stats = sim.run(p);
    EXPECT_GE(stats.cycles, 30000u);
}

TEST(Simulator, PortPressureThrottles)
{
    // Ops needing 12 ports cannot overlap on a 12-port register file
    // even though FU units are available.
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1024, "in");
    for (int i = 0; i < 2; ++i) {
        const auto out = p.addValue(ValueKind::Intermediate, 1024, "t");
        PolyInst inst;
        inst.stage = "wide";
        inst.n = p.n;
        inst.fus = {{FuType::Add, 2, 1024}};
        inst.reads = {in};
        inst.writes = {out};
        inst.duration = 10000;
        inst.rfPorts = 12;
        p.addInst(std::move(inst));
    }
    Simulator sim(ChipConfig::craterLake());
    auto stats = sim.run(p);
    EXPECT_GE(stats.cycles, 20000u);
}

TEST(Simulator, MissingFuIsFatal)
{
    Program p = singleInstProgram(100);
    p.insts[0].fus = {{FuType::Crb, 1, 100}};
    ChipConfig cfg = ChipConfig::noCrbNoChain();
    Simulator sim(cfg);
    EXPECT_DEATH(sim.run(p), "absent FU");
}

TEST(Simulator, ReusedOperandLoadsOnce)
{
    Program p;
    p.n = 1 << 16;
    const auto ksh =
        p.addValue(ValueKind::KeySwitchHint, 1 << 20, "ksh");
    for (int i = 0; i < 5; ++i) {
        const auto out = p.addValue(ValueKind::Intermediate, 1024, "t");
        PolyInst inst;
        inst.stage = "use";
        inst.n = p.n;
        inst.fus = {{FuType::Multiply, 1, 1024}};
        inst.reads = {ksh};
        inst.writes = {out};
        inst.duration = 100;
        inst.rfPorts = 2;
        p.addInst(std::move(inst));
    }
    Simulator sim(ChipConfig::craterLake());
    auto stats = sim.run(p);
    EXPECT_EQ(stats.kshLoadWords, 1u << 20); // loaded exactly once
}

TEST(Simulator, CapacityEvictionCausesReload)
{
    // Two large hints that cannot both fit alternate -> reloads.
    ChipConfig cfg = ChipConfig::withRfMB(16);
    const std::uint64_t big = cfg.rfWords() * 6 / 10;
    Program p;
    p.n = 1 << 16;
    const auto a = p.addValue(ValueKind::KeySwitchHint, big, "a");
    const auto b = p.addValue(ValueKind::KeySwitchHint, big, "b");
    for (int i = 0; i < 4; ++i) {
        const auto out = p.addValue(ValueKind::Intermediate, 16, "t");
        PolyInst inst;
        inst.stage = "use";
        inst.n = p.n;
        inst.fus = {{FuType::Multiply, 1, 16}};
        inst.reads = {i % 2 == 0 ? a : b};
        inst.writes = {out};
        inst.duration = 10;
        inst.rfPorts = 2;
        p.addInst(std::move(inst));
    }
    Simulator sim(cfg);
    auto stats = sim.run(p);
    EXPECT_EQ(stats.kshLoadWords, 4 * big); // reloaded every time
}

TEST(Simulator, DirtyIntermediateSpills)
{
    // A live intermediate evicted under pressure must be written back.
    ChipConfig cfg = ChipConfig::withRfMB(16);
    const std::uint64_t big = cfg.rfWords() * 6 / 10;
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 16, "in");
    const auto t1 = p.addValue(ValueKind::Intermediate, big, "t1");
    const auto k = p.addValue(ValueKind::KeySwitchHint, big, "k");
    const auto t2 = p.addValue(ValueKind::Intermediate, 16, "t2");
    const auto t3 = p.addValue(ValueKind::Intermediate, 16, "t3");

    PolyInst produce;
    produce.stage = "produce";
    produce.n = p.n;
    produce.fus = {{FuType::Add, 1, 16}};
    produce.reads = {in};
    produce.writes = {t1};
    produce.duration = 10;
    p.addInst(std::move(produce));

    PolyInst other; // forces t1 out
    other.stage = "other";
    other.n = p.n;
    other.fus = {{FuType::Add, 1, 16}};
    other.reads = {k};
    other.writes = {t2};
    other.duration = 10;
    p.addInst(std::move(other));

    PolyInst consume; // t1 reloaded
    consume.stage = "consume";
    consume.n = p.n;
    consume.fus = {{FuType::Add, 1, 16}};
    consume.reads = {t1};
    consume.writes = {t3};
    consume.duration = 10;
    p.addInst(std::move(consume));

    Simulator sim(cfg);
    auto stats = sim.run(p);
    // t1 spills when k arrives; t2 — dirty and never read again —
    // is also written back when t1 is reloaded (its bits exist
    // nowhere off-chip, so dropping it would discard a result).
    EXPECT_EQ(stats.intermStoreWords, big + 16);
    EXPECT_EQ(stats.intermLoadWords, big);
}

TEST(Simulator, NetworkBandwidthLimits)
{
    // An op moving many network words is stretched by network time.
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1024, "in");
    const auto out = p.addValue(ValueKind::Intermediate, 1024, "out");
    PolyInst inst;
    inst.stage = "ntt";
    inst.n = p.n;
    inst.fus = {{FuType::Ntt, 1, 1024}};
    inst.reads = {in};
    inst.writes = {out};
    inst.duration = 10;
    inst.networkWords = 1 << 24;
    p.addInst(std::move(inst));
    // A second network op must wait for the first transfer.
    const auto out2 = p.addValue(ValueKind::Intermediate, 1024, "out2");
    PolyInst inst2 = p.insts[0];
    inst2.writes = {out2};
    inst2.id = 0;
    p.addInst(std::move(inst2));

    ChipConfig cfg = ChipConfig::craterLake();
    Simulator sim(cfg);
    auto stats = sim.run(p);
    const auto net_cycles = static_cast<std::uint64_t>(
        (1 << 24) / cfg.networkWordsPerCycle());
    EXPECT_GE(stats.cycles, net_cycles);
    EXPECT_EQ(stats.networkWords, 2u << 24);
}

TEST(Simulator, CrossbarInflatesTraffic)
{
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1024, "in");
    const auto out = p.addValue(ValueKind::Intermediate, 1024, "out");
    PolyInst inst;
    inst.stage = "ntt";
    inst.n = p.n;
    inst.fus = {{FuType::Ntt, 1, 1024}};
    inst.reads = {in};
    inst.writes = {out};
    inst.duration = 10;
    inst.networkWords = 1000000;
    p.addInst(std::move(inst));

    Simulator fixed(ChipConfig::craterLake());
    Simulator xbar(ChipConfig::crossbarNetwork());
    const auto s1 = fixed.run(p);
    const auto s2 = xbar.run(p);
    // Residue-polynomial tiling incurs 2.4x the traffic (Sec 4.3).
    EXPECT_NEAR(static_cast<double>(s2.networkWords) / s1.networkWords,
                2.4, 0.01);
}

// --- Belady eviction order with streamed operands --------------------

namespace {

/** Config with an exactly-known register file and memory bandwidth:
 *  capacity rf_words (wordBytes = 3.5) and 256 words/cycle, so every
 *  transfer of w words takes floor(w/256)+1 cycles. */
ChipConfig
exactConfig(std::uint64_t rf_words)
{
    ChipConfig cfg = ChipConfig::craterLake();
    cfg.rfBytes = static_cast<std::uint64_t>(rf_words * 3.5);
    cfg.hbmPhys = 2;
    cfg.hbmGBpsPerPhy = 448.0; // 896 B/cy / 3.5 B = 256 words/cy
    cfg.freqGhz = 1.0;
    return cfg;
}

PolyInst
simpleInst(std::vector<std::uint32_t> reads,
           std::vector<std::uint32_t> writes, const char *mnemonic)
{
    PolyInst inst;
    inst.stage = mnemonic;
    inst.n = 1 << 16;
    inst.fus = {{FuType::Add, 1, 16}};
    inst.reads.assign(reads.begin(), reads.end());
    inst.writes.assign(writes.begin(), writes.end());
    inst.duration = 10;
    inst.rfPorts = 2;
    return inst;
}

} // namespace

TEST(Simulator, BeladyStreamedReadAdvancesNextUse)
{
    // A value that was STREAMED (read while not resident) must still
    // consume that use: when it later becomes resident again, its
    // Belady key has to point at a future consumer, not a past one.
    // Otherwise the eviction order inverts — the stale entry looks
    // maximally urgent and the replacement policy evicts a value with
    // a genuinely nearer use instead.
    //
    // 2000-word register file. Values (creation order):
    //   F: Input, 900 w, consumers {0, 1, 5}
    //   G: Input, 800 w, consumers {0, 1, 2, 4}
    //   S: Intermediate, 600 w, produced by i0, rewritten in place by
    //      i2 (which does NOT read it), consumers {1, 6}
    //   A: Input, 700 w, consumers {3}
    //
    //   i0 reads {F,G} writes {S}: F, G load (1700 w); S stream-stores.
    //   i1 reads {S,F,G}:          S streams (F, G pinned).
    //   i2 reads {G}  writes {S}:  F evicted; S inserted. Its key is
    //                              consumer 6 if i1's streamed use was
    //                              consumed — stale consumer 1 if not.
    //   i3 reads {A}:              room for A needs one eviction.
    //                                fixed: S (next use 6) spills;
    //                                buggy: stale S looks urgent, G
    //                                (next use 4) is evicted instead.
    //   i4 reads {G}, i5 reads {F}, i6 reads {S}: pay for the choice.
    Program p;
    p.n = 1 << 16;
    const auto F = p.addValue(ValueKind::Input, 900, "F");
    const auto G = p.addValue(ValueKind::Input, 800, "G");
    const auto S = p.addValue(ValueKind::Intermediate, 600, "S");
    const auto A = p.addValue(ValueKind::Input, 700, "A");
    p.addInst(simpleInst({F, G}, {S}, "i0"));
    p.addInst(simpleInst({S, F, G}, {}, "i1"));
    p.addInst(simpleInst({G}, {S}, "i2"));
    p.addInst(simpleInst({A}, {}, "i3"));
    p.addInst(simpleInst({G}, {}, "i4"));
    p.addInst(simpleInst({F}, {}, "i5"));
    p.addInst(simpleInst({S}, {}, "i6"));

    Simulator sim(exactConfig(2000));
    const SimStats stats = sim.run(p);
    // Fixed eviction order: F+G+A loaded once plus one F reload
    // (buggy order reloads G and A too: 4100 input words).
    EXPECT_EQ(stats.inputLoadWords, 3300u);
    // S: streamed once at i1, reloaded once at i6 (buggy: 600).
    EXPECT_EQ(stats.intermLoadWords, 1200u);
    // S: stream-stored at i0, spilled live at i3 (buggy: 600).
    EXPECT_EQ(stats.intermStoreWords, 1200u);
}

// --- Deterministic pins for every traffic counter --------------------
//
// Each test fixes an exact configuration (see exactConfig) and a
// hand-built program whose timeline is computed in the comments, then
// pins `cycles` and the full SimStats counter set so that any change
// to issue, residency, or memory accounting shows up as a diff here.

TEST(Simulator, RegressionPinOutputStore)
{
    // in(2560 w) loads in 11 cy; compute 1000 cy; output store starts
    // at finish (1011) and holds the channel 11 cy -> cycles 1022.
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 2560, "in");
    const auto out = p.addValue(ValueKind::Output, 2560, "out");
    PolyInst inst = simpleInst({in}, {out}, "op");
    inst.duration = 1000;
    p.addInst(std::move(inst));

    Simulator sim(exactConfig(8192));
    const SimStats stats = sim.run(p);
    EXPECT_EQ(stats.cycles, 1022u);
    EXPECT_EQ(stats.inputLoadWords, 2560u);
    EXPECT_EQ(stats.outputStoreWords, 2560u);
    EXPECT_EQ(stats.intermLoadWords, 0u);
    EXPECT_EQ(stats.intermStoreWords, 0u);
    EXPECT_EQ(stats.kshLoadWords, 0u);
    EXPECT_EQ(stats.plainLoadWords, 0u);
    EXPECT_EQ(stats.memBusyCycles, 22u);
    EXPECT_EQ(stats.fuBusy[static_cast<unsigned>(FuType::Add)], 1000u);
    EXPECT_EQ(stats.networkWords, 0u);
}

TEST(Simulator, RegressionPinSpillReload)
{
    // 4096-word register file. i0 loads in(256, 2 cy), produces
    // t1(2560, dirty). i1 needs k(2560): evicts in (clean) then
    // spills t1 (2-13), loads k (13-24). i2 rereads t1: spills t2 —
    // dirty and never consumed, so its bits must be written back
    // (24-26) — evicts the exhausted k (clean), reloads t1 (26-37).
    // Timeline: ready 24 at i1, ready 37 at i2; finish 47.
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 256, "in");
    const auto t1 = p.addValue(ValueKind::Intermediate, 2560, "t1");
    const auto k = p.addValue(ValueKind::KeySwitchHint, 2560, "k");
    const auto t2 = p.addValue(ValueKind::Intermediate, 256, "t2");
    const auto t3 = p.addValue(ValueKind::Intermediate, 256, "t3");
    p.addInst(simpleInst({in}, {t1}, "produce"));
    p.addInst(simpleInst({k}, {t2}, "other"));
    p.addInst(simpleInst({t1}, {t3}, "consume"));

    Simulator sim(exactConfig(4096));
    const SimStats stats = sim.run(p);
    EXPECT_EQ(stats.cycles, 47u);
    EXPECT_EQ(stats.inputLoadWords, 256u);
    EXPECT_EQ(stats.kshLoadWords, 2560u);
    EXPECT_EQ(stats.intermStoreWords, 2816u); // t1 + t2 spills
    EXPECT_EQ(stats.intermLoadWords, 2560u);  // t1 reload
    EXPECT_EQ(stats.outputStoreWords, 0u);
    EXPECT_EQ(stats.memBusyCycles, 37u);
    EXPECT_EQ(stats.fuBusy[static_cast<unsigned>(FuType::Add)], 30u);
}

TEST(Simulator, RegressionPinStreaming)
{
    // 1024-word register file, 2560-word operand: never fits, streams
    // on both uses (11 cy each on the memory channel). use1's
    // make_room empties the RF before falling back to streaming,
    // which flushes o0 — dirty and never read, so written back
    // (256 words, 2 cy) rather than silently dropped.
    Program p;
    p.n = 1 << 16;
    const auto S = p.addValue(ValueKind::Input, 2560, "S");
    const auto o0 = p.addValue(ValueKind::Intermediate, 256, "o0");
    const auto o1 = p.addValue(ValueKind::Intermediate, 256, "o1");
    p.addInst(simpleInst({S}, {o0}, "use0"));
    p.addInst(simpleInst({S}, {o1}, "use1"));

    Simulator sim(exactConfig(1024));
    const SimStats stats = sim.run(p);
    EXPECT_EQ(stats.cycles, 34u);
    EXPECT_EQ(stats.inputLoadWords, 5120u); // streamed twice
    EXPECT_EQ(stats.intermLoadWords, 0u);
    EXPECT_EQ(stats.intermStoreWords, 256u); // o0 written back
    EXPECT_EQ(stats.outputStoreWords, 0u);
    EXPECT_EQ(stats.memBusyCycles, 24u);
}

TEST(Simulator, RegressionPinDeadDirtyWriteback)
{
    // A dirty intermediate with *no* remaining use still owns the
    // only copy of its bits: evicting it must write it back, not
    // silently drop it. (The original make_room skipped the
    // writeback whenever next_use == noUse, so a program whose
    // result was computed but never re-read lost the data and
    // under-charged store traffic.)
    //
    // 4096-word RF. i0 loads in(256, 0-2), produces t1(2560, dirty,
    // never read again). i1 needs k(2560): in alone is too small to
    // free, so t1 is the victim — spilled 2-13, k loads 13-24,
    // ready 24, finish 34.
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 256, "in");
    const auto t1 = p.addValue(ValueKind::Intermediate, 2560, "t1");
    const auto k = p.addValue(ValueKind::KeySwitchHint, 2560, "k");
    const auto t2 = p.addValue(ValueKind::Intermediate, 256, "t2");
    p.addInst(simpleInst({in}, {t1}, "produce"));
    p.addInst(simpleInst({k}, {t2}, "other"));

    Simulator sim(exactConfig(4096));
    const SimStats stats = sim.run(p);
    EXPECT_EQ(stats.cycles, 34u);
    EXPECT_EQ(stats.inputLoadWords, 256u);
    EXPECT_EQ(stats.kshLoadWords, 2560u);
    EXPECT_EQ(stats.intermStoreWords, 2560u); // t1 written back
    EXPECT_EQ(stats.intermLoadWords, 0u);
    EXPECT_EQ(stats.memBusyCycles, 24u);
}

TEST(Simulator, RegressionPinInPlaceRmw)
{
    // v is produced, rewritten in place (read+write), then consumed
    // into an output. No spill traffic; one input load, one output
    // store, and a dead-free of v at its last use.
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 256, "in");
    const auto v = p.addValue(ValueKind::Intermediate, 256, "v");
    const auto o = p.addValue(ValueKind::Output, 256, "o");
    p.addInst(simpleInst({in}, {v}, "produce"));
    p.addInst(simpleInst({v}, {v}, "rmw"));
    p.addInst(simpleInst({v}, {o}, "store"));

    Simulator sim(exactConfig(4096));
    const SimStats stats = sim.run(p);
    EXPECT_EQ(stats.cycles, 34u);
    EXPECT_EQ(stats.inputLoadWords, 256u);
    EXPECT_EQ(stats.outputStoreWords, 256u);
    EXPECT_EQ(stats.intermLoadWords, 0u);
    EXPECT_EQ(stats.intermStoreWords, 0u);
    EXPECT_EQ(stats.memBusyCycles, 4u);
    EXPECT_EQ(stats.fuBusy[static_cast<unsigned>(FuType::Add)], 30u);
}

TEST(Simulator, RegressionPinSpilledProducerGatesConsumer)
{
    // Same shape as RegressionPinSpillReload but the producer runs
    // 1000 cycles. Its result t1 is spilled (memory timeline, cycles
    // 2-13) and reloaded (26-37, after t2's writeback) long before
    // the producer finishes at 1002 — the transfers only move the
    // *space*; the data exists at the producer's finish. The consumer
    // must start at max(reload done, producer finish) = 1002, not 37.
    // (Before the fix, ensure_resident returned the pure
    // memory-timeline time and the consumer read its operand
    // hundreds of cycles before it was written.)
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 256, "in");
    const auto t1 = p.addValue(ValueKind::Intermediate, 2560, "t1");
    const auto k = p.addValue(ValueKind::KeySwitchHint, 2560, "k");
    const auto t2 = p.addValue(ValueKind::Intermediate, 256, "t2");
    const auto t3 = p.addValue(ValueKind::Intermediate, 256, "t3");
    PolyInst produce = simpleInst({in}, {t1}, "produce");
    produce.duration = 1000;
    p.addInst(std::move(produce));
    p.addInst(simpleInst({k}, {t2}, "other"));
    p.addInst(simpleInst({t1}, {t3}, "consume"));

    Simulator sim(exactConfig(4096));
    const SimStats stats = sim.run(p);
    // consume: operands at max(37, 1002) = 1002, finish 1012.
    EXPECT_EQ(stats.cycles, 1012u);
    // Traffic is unchanged from the short-producer variant.
    EXPECT_EQ(stats.inputLoadWords, 256u);
    EXPECT_EQ(stats.kshLoadWords, 2560u);
    EXPECT_EQ(stats.intermStoreWords, 2816u);
    EXPECT_EQ(stats.intermLoadWords, 2560u);
    EXPECT_EQ(stats.memBusyCycles, 37u);
    EXPECT_EQ(stats.fuBusy[static_cast<unsigned>(FuType::Add)], 1020u);
}

TEST(Simulator, RegressionPinDuplicateReadChargedOnce)
{
    // An operand listed twice in one instruction's reads is one
    // operand: it occupies the memory channel (and the traffic
    // counters) once, not once per mention. S (2560 w) never fits the
    // 1024-word register file, so i1's double mention streams it:
    // stream-store holds the channel 2-13, one streamed reload 13-24,
    // start max(24, producer finish 12) = 24, finish 34. (Before the
    // fix the second mention streamed S again: 5120 intermediate load
    // words and 11 extra cycles.)
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 256, "in");
    const auto S = p.addValue(ValueKind::Intermediate, 2560, "S");
    const auto o = p.addValue(ValueKind::Intermediate, 256, "o");
    p.addInst(simpleInst({in}, {S}, "produce"));
    p.addInst(simpleInst({S, S}, {o}, "square"));

    Simulator sim(exactConfig(1024));
    const SimStats stats = sim.run(p);
    EXPECT_EQ(stats.intermLoadWords, 2560u);
    EXPECT_EQ(stats.intermStoreWords, 2560u);
    EXPECT_EQ(stats.inputLoadWords, 256u);
    EXPECT_EQ(stats.memBusyCycles, 24u);
    EXPECT_EQ(stats.cycles, 34u);
}

TEST(Simulator, SameTypeFuUsesCompose)
{
    // An instruction may split one FU class across several FuUse
    // entries (distinct lane groups). The claims must be merged: on a
    // 2-adder chip with one adder busy for 1000 cycles, an
    // independent {Add x1, Add x1} instruction needs both adders and
    // waits. (Before the fix each entry probed the pool
    // independently, both picked the one free adder, and the second
    // acquire tripped the "unit busy" assertion — a crash on a legal
    // program.)
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1024, "in");
    const auto t0 = p.addValue(ValueKind::Intermediate, 1024, "t0");
    const auto t1 = p.addValue(ValueKind::Intermediate, 1024, "t1");
    PolyInst slow = simpleInst({in}, {t0}, "slow");
    slow.duration = 1000;
    p.addInst(std::move(slow));
    PolyInst split = simpleInst({in}, {t1}, "split");
    split.fus = {{FuType::Add, 1, 16}, {FuType::Add, 1, 16}};
    p.addInst(std::move(split));

    ChipConfig cfg = ChipConfig::craterLake();
    cfg.addUnits = 2;
    Simulator sim(cfg);
    const SimStats stats = sim.run(p);
    // split waits for slow's adder: finish >= 1000 + 10.
    EXPECT_GE(stats.cycles, 1010u);
    EXPECT_EQ(stats.fuBusy[static_cast<unsigned>(FuType::Add)], 1020u);
}

TEST(Simulator, EnergyAccountingConsistent)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    Simulator sim(cfg);
    auto stats = sim.run(singleInstProgram(1000));
    const EnergyBreakdown e = stats.energy(cfg);
    EXPECT_GT(e.total(), 0.0);
    EXPECT_GT(e.hbm, 0.0);
    EXPECT_GT(stats.avgPowerWatts(cfg), 0.0);
}


// --- Sorted unit pool vs the copy-and-sort reference ------------------

namespace {

/** The original pool: copies and partially sorts its busy-until times
 *  on every query and sorts a unit index on every claim. Kept as the
 *  oracle for UnitPool; only busyUntil() is added. */
class SortPool
{
  public:
    explicit SortPool(unsigned count) : freeAt_(count, 0) {}

    std::uint64_t
    earliest(unsigned k, std::uint64_t ready) const
    {
        CL_ASSERT(k <= freeAt_.size(), "pool oversubscribed: need ", k,
                  " of ", freeAt_.size());
        if (k == 0)
            return ready;
        std::vector<std::uint64_t> sorted(freeAt_);
        std::nth_element(sorted.begin(), sorted.begin() + (k - 1),
                         sorted.end());
        return std::max(ready, sorted[k - 1]);
    }

    void
    acquire(unsigned k, std::uint64_t start, std::uint64_t duration)
    {
        // Take the k units with the earliest free times.
        std::vector<std::size_t> order(freeAt_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](auto a, auto b) {
            return freeAt_[a] < freeAt_[b];
        });
        for (unsigned i = 0; i < k; ++i) {
            CL_ASSERT(freeAt_[order[i]] <= start, "unit busy at acquire");
            freeAt_[order[i]] = start + duration;
        }
    }

    std::vector<std::uint64_t>
    busyUntil() const
    {
        std::vector<std::uint64_t> sorted(freeAt_);
        std::sort(sorted.begin(), sorted.end());
        return sorted;
    }

  private:
    std::vector<std::uint64_t> freeAt_;
};

} // namespace

TEST(UnitPool, MatchesSortReference)
{
    // Random claims against both pools: every earliest() answer and
    // the busy-until multiset must agree after every acquire. Times
    // and durations are drawn from small ranges so that equal free
    // times (ties) are common; k = 0 and k = count are forced often.
    for (unsigned count : {1u, 2u, 5u, 12u, 32u, 64u}) {
        SCOPED_TRACE(count);
        FastRng rng(count);
        UnitPool pool(count);
        SortPool ref(count);
        std::uint64_t now = 0;
        for (int step = 0; step < 2000; ++step) {
            const std::uint64_t roll = rng.nextBelow(8);
            const unsigned k =
                roll == 0 ? 0u
                : roll == 1
                    ? count
                    : static_cast<unsigned>(rng.nextBelow(count + 1));
            now += rng.nextBelow(4);
            const std::uint64_t ready = now + rng.nextBelow(3);
            for (unsigned q = 0; q <= count; ++q)
                ASSERT_EQ(pool.earliest(q, ready), ref.earliest(q, ready))
                    << "step " << step << " k " << q;
            const std::uint64_t start =
                pool.earliest(k, ready) + rng.nextBelow(2);
            const std::uint64_t duration = rng.nextBelow(6);
            pool.acquire(k, start, duration);
            ref.acquire(k, start, duration);
            ASSERT_EQ(pool.busyUntil(), ref.busyUntil()) << "step " << step;
            ASSERT_TRUE(std::is_sorted(pool.busyUntil().begin(),
                                       pool.busyUntil().end()));
        }
    }
}

TEST(UnitPool, OversubscribedAcquireIsFatal)
{
    // acquire() checks k itself; it must not rely on a prior
    // earliest() call to reject an oversubscribed claim.
    UnitPool pool(4);
    EXPECT_DEATH(pool.acquire(5, 0, 10), "pool oversubscribed");
    EXPECT_DEATH((void)pool.earliest(5, 0), "pool oversubscribed");
}

TEST(UnitPool, BusyUnitAtAcquireIsFatal)
{
    UnitPool pool(2);
    pool.acquire(2, 0, 100);
    EXPECT_DEATH(pool.acquire(1, 50, 10), "unit busy at acquire");
}

} // namespace
} // namespace cl
