/** Tests for the instruction-level trace/observability layer. */

#include <gtest/gtest.h>

#include <sstream>

#include "compiler/lower.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace cl {
namespace {

/** Small but non-trivial workload: a multiply and a rotation exercise
 *  keyswitching, rescale, network transfers, and the memory channel. */
Program
smallProgram(const ChipConfig &cfg)
{
    HomBuilder b("trace-test", 14, 12, [](unsigned) { return 1u; });
    auto a = b.input(12);
    auto c = b.mul(a, a, 2);
    auto d = b.rotate(c, 3);
    b.output(d);
    Lowering lower(cfg);
    return lower.lower(b.take());
}

TEST(Trace, RecordsEveryInstruction)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    const Program p = smallProgram(cfg);
    Simulator sim(cfg);
    TraceRecorder rec;
    sim.run(p, &rec);
    ASSERT_EQ(rec.insts().size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        const InstTrace &t = rec.insts()[i];
        EXPECT_EQ(t.id, p.insts[i].id);
        EXPECT_EQ(t.mnemonic, instName(p.insts[i]));
        EXPECT_LE(t.issueReady, t.start);
        EXPECT_LE(t.operandsAt, t.start);
        EXPECT_EQ(t.finish, t.start + p.insts[i].duration);
    }
}

TEST(Trace, FuBusyAgreesWithSimStats)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    const Program p = smallProgram(cfg);
    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats stats = sim.run(p, &rec);
    const auto busy = rec.fuBusyFromTrace();
    for (unsigned t = 0; t < numFuTypes; ++t)
        EXPECT_EQ(busy[t], stats.fuBusy[t])
            << fuTypeName(static_cast<FuType>(t));
    EXPECT_NEAR(rec.fuUtilization(cfg, stats.cycles),
                stats.fuUtilization(cfg), 1e-12);
}

TEST(Trace, DisabledTracingIsBitIdentical)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    const Program p = smallProgram(cfg);
    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats traced = sim.run(p, &rec);
    const SimStats untraced = sim.run(p);
    const SimStats again = sim.run(p, nullptr);
    EXPECT_EQ(traced, untraced);
    EXPECT_EQ(untraced, again);
}

TEST(Trace, ChromeTraceWellFormed)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    const Program p = smallProgram(cfg);
    Simulator sim(cfg);
    TraceRecorder rec;
    sim.run(p, &rec);
    std::ostringstream os;
    rec.writeChromeTrace(os, cfg);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Track metadata for compute, memory, and network processes.
    EXPECT_NE(json.find("compute (craterlake)"), std::string::npos);
    EXPECT_NE(json.find("memory channel"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    // At least one complete event with stall attribution.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"binding\":"), std::string::npos);
    // Brace balance (no truncated emission).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(json.back(), '\n');
}

TEST(Trace, BottleneckReportSections)
{
    const ChipConfig cfg = ChipConfig::craterLake();
    const Program p = smallProgram(cfg);
    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats stats = sim.run(p, &rec);
    std::ostringstream os;
    rec.writeBottleneckReport(os, cfg, stats, 5, 8);
    const std::string report = os.str();
    EXPECT_NE(report.find("Bottleneck report"), std::string::npos);
    EXPECT_NE(report.find("aggregate FU util"), std::string::npos);
    EXPECT_NE(report.find("Issue-stall attribution"), std::string::npos);
    EXPECT_NE(report.find("stalled instructions"), std::string::npos);
    EXPECT_NE(report.find("Utilization over time"), std::string::npos);
}

TEST(Trace, ResidencyEventsCoverLifecycle)
{
    // Reuse the spill/reload program shape: produce a large dirty
    // intermediate, force it out with a hint, reread it.
    ChipConfig cfg = ChipConfig::withRfMB(16);
    const std::uint64_t big = cfg.rfWords() * 6 / 10;
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 16, "in");
    const auto t1 = p.addValue(ValueKind::Intermediate, big, "t1");
    const auto k = p.addValue(ValueKind::KeySwitchHint, big, "k");
    const auto t2 = p.addValue(ValueKind::Intermediate, 16, "t2");
    const auto t3 = p.addValue(ValueKind::Intermediate, 16, "t3");
    auto mk = [&](std::vector<std::uint32_t> r,
                  std::vector<std::uint32_t> w) {
        PolyInst inst;
        inst.stage = "op";
        inst.n = p.n;
        inst.fus = {{FuType::Add, 1, 16}};
        inst.reads.assign(r.begin(), r.end());
        inst.writes.assign(w.begin(), w.end());
        inst.duration = 10;
        inst.rfPorts = 2;
        p.addInst(std::move(inst));
    };
    mk({in}, {t1});
    mk({k}, {t2});
    mk({t1}, {t3});

    Simulator sim(cfg);
    TraceRecorder rec;
    sim.run(p, &rec);
    unsigned loads = 0, t1_spills = 0, t2_spills = 0, frees = 0;
    for (const ResidencyEvent &e : rec.residency()) {
        switch (e.action) {
          case ResidencyAction::Load:
            ++loads;
            break;
          case ResidencyAction::Spill:
            // Two write-backs: t1 (live, rereads later) and t2
            // (dirty, never read — its bits exist nowhere else).
            if (e.valueId == t1) {
                ++t1_spills;
                EXPECT_EQ(e.words, big);
            } else {
                ++t2_spills;
                EXPECT_EQ(e.valueId, t2);
                EXPECT_EQ(e.words, 16u);
            }
            EXPECT_GT(e.memEnd, e.memStart);
            break;
          case ResidencyAction::DeadFree:
            ++frees;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(loads, 3u); // in, k, t1 reload
    EXPECT_EQ(t1_spills, 1u);
    EXPECT_EQ(t2_spills, 1u);
    EXPECT_GE(frees, 1u); // t1 freed after its last use
}

TEST(Trace, StreamedOperandsEmitStreamEvents)
{
    ChipConfig cfg = ChipConfig::craterLake();
    cfg.rfBytes = 3584; // 1024 words: a 2560-word operand never fits
    Program p;
    p.n = 1 << 16;
    const auto S = p.addValue(ValueKind::Input, 2560, "S");
    const auto o = p.addValue(ValueKind::Intermediate, 256, "o");
    PolyInst inst;
    inst.stage = "use";
    inst.n = p.n;
    inst.fus = {{FuType::Add, 1, 16}};
    inst.reads = {S};
    inst.writes = {o};
    inst.duration = 10;
    inst.rfPorts = 2;
    p.addInst(std::move(inst));

    Simulator sim(cfg);
    TraceRecorder rec;
    sim.run(p, &rec);
    bool streamed = false;
    for (const ResidencyEvent &e : rec.residency())
        streamed |= e.action == ResidencyAction::Stream && e.valueId == S;
    EXPECT_TRUE(streamed);
}

TEST(Trace, StallAttributionFindsOperandWait)
{
    // A dependent chain with a long producer: the consumer's binding
    // resource must be the operand wait, not an FU.
    Program p;
    p.n = 1 << 16;
    const auto in = p.addValue(ValueKind::Input, 1024, "in");
    const auto t = p.addValue(ValueKind::Intermediate, 1024, "t");
    const auto o = p.addValue(ValueKind::Intermediate, 1024, "o");
    auto mk = [&](std::vector<std::uint32_t> r,
                  std::vector<std::uint32_t> w, std::uint64_t dur) {
        PolyInst inst;
        inst.stage = "op";
        inst.n = p.n;
        inst.fus = {{FuType::Add, 1, 16}};
        inst.reads.assign(r.begin(), r.end());
        inst.writes.assign(w.begin(), w.end());
        inst.duration = dur;
        inst.rfPorts = 2;
        p.addInst(std::move(inst));
    };
    mk({in}, {t}, 10000);
    mk({t}, {o}, 10);

    Simulator sim(ChipConfig::craterLake());
    TraceRecorder rec;
    sim.run(p, &rec);
    ASSERT_EQ(rec.insts().size(), 2u);
    const InstTrace &consumer = rec.insts()[1];
    EXPECT_EQ(consumer.binding, StallReason::Operand);
    EXPECT_GE(consumer.stall(), 9000u);
}

} // namespace
} // namespace cl
