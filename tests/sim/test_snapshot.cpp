/**
 * Pins the simulator against the committed BENCH_sim.json snapshot:
 * every unscheduled ("schedule": "none") entry — each workload
 * benchmark on craterlake and f1plus at 80-bit security, lowered and
 * simulated as `sim_trace --matrix` does — must reproduce its
 * instruction count, cycles and traffic counters exactly, and must
 * lower to a program whose digest matches the pinned table.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/lower.h"
#include "sim/simulator.h"
#include "workloads/benchmarks.h"

namespace cl {
namespace {

/** One snapshot entry, as the raw text of its JSON object. The file is
 *  written by a fixed formatter (`"key": value`, keys unique within an
 *  entry), so fields are found by key. */
struct Entry
{
    std::string text;

    std::string
    str(const std::string &key) const
    {
        const std::string tag = "\"" + key + "\": \"";
        const auto at = text.find(tag);
        if (at == std::string::npos)
            return {};
        const auto from = at + tag.size();
        return text.substr(from, text.find('"', from) - from);
    }

    std::uint64_t
    num(const std::string &key) const
    {
        const std::string tag = "\"" + key + "\": ";
        const auto at = text.find(tag);
        EXPECT_NE(at, std::string::npos) << "missing " << key;
        if (at == std::string::npos)
            return 0;
        return std::strtoull(text.c_str() + at + tag.size(), nullptr, 10);
    }
};

/** 64-bit FNV-1a over little-endian integers and length-prefixed
 *  strings. */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ull;

    void
    num(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    str(const std::string &s)
    {
        num(s.size());
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }

    template <class C>
    void
    ids(const C &c)
    {
        num(c.size());
        for (auto v : c)
            num(v);
    }
};

/** Digest of everything a lowered program hands to the simulator and
 *  the trace: each instruction's rendered name, operands, FU uses and
 *  costs, and each value's kind, size, rendered name and links. */
std::uint64_t
programDigest(const Program &p)
{
    Fnv f;
    f.num(p.insts.size());
    for (const PolyInst &inst : p.insts) {
        f.str(instName(inst));
        f.ids(inst.reads);
        f.ids(inst.writes);
        f.num(inst.fus.size());
        for (const FuUse &u : inst.fus) {
            f.num(static_cast<unsigned>(u.type));
            f.num(u.units);
            f.num(u.laneOps);
        }
        f.num(inst.duration);
        f.num(inst.n);
        f.num(inst.rfPorts);
        f.num(inst.rfWords);
        f.num(inst.networkWords);
    }
    f.num(p.values.size());
    for (const Value &v : p.values) {
        f.num(static_cast<unsigned>(v.kind));
        f.num(v.words);
        f.str(valueName(v));
        f.num(v.seededHalf);
        f.num(static_cast<std::uint64_t>(v.producer));
        f.ids(v.consumers);
    }
    return f.h;
}

/** programDigest of each unscheduled lowering, pinned when names were
 *  still stored as strings and operands as heap vectors: the inline
 *  representation must lower to the same programs byte for byte. */
struct ProgramDigest
{
    const char *benchmark;
    const char *config;
    std::uint64_t digest;
};

constexpr ProgramDigest kProgramDigests[] = {
    {"resnet20", "craterlake", 0x9f107bfeddf1a60eull},
    {"resnet20", "f1plus", 0x19a8420cb78220c8ull},
    {"logreg", "craterlake", 0x1ff9ac945ab115caull},
    {"logreg", "f1plus", 0x6554f7f3f8969af4ull},
    {"lstm", "craterlake", 0x9ca6bfcdee5ee7b3ull},
    {"lstm", "f1plus", 0xb764e4ca57847656ull},
    {"boot-packed", "craterlake", 0x6c60beedd67735c2ull},
    {"boot-packed", "f1plus", 0x678348f3646a537bull},
    {"boot-unpacked", "craterlake", 0xe734ae3098c12777ull},
    {"boot-unpacked", "f1plus", 0x7210492c482e3009ull},
    {"lola-cifar", "craterlake", 0xcd2915fc8920bd4full},
    {"lola-cifar", "f1plus", 0x672d0a6d598b6180ull},
    {"lola-mnist", "craterlake", 0xe1ca7125da490633ull},
    {"lola-mnist", "f1plus", 0x6d4d4ccce1926c42ull},
    {"lola-mnist-ew", "craterlake", 0x1947dec0ffe093c5ull},
    {"lola-mnist-ew", "f1plus", 0x841f445d5dfb6d29ull},
};

std::uint64_t
pinnedDigest(const std::string &bn, const std::string &cn)
{
    for (const ProgramDigest &d : kProgramDigests) {
        if (bn == d.benchmark && cn == d.config)
            return d.digest;
    }
    ADD_FAILURE() << "no pinned digest for " << bn << " x " << cn;
    return 0;
}

std::vector<Entry>
loadSnapshot()
{
    std::ifstream in(CL_BENCH_SIM_JSON);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string all = ss.str();
    // Each entry object starts at its "benchmark" key.
    const std::string start = "\"benchmark\": ";
    std::vector<Entry> entries;
    for (auto at = all.find(start); at != std::string::npos;) {
        const auto next = all.find(start, at + 1);
        entries.push_back({all.substr(at, next - at)});
        at = next;
    }
    return entries;
}

TEST(SimSnapshot, UnscheduledEntriesMatchCommittedSnapshot)
{
    const std::vector<Entry> entries = loadSnapshot();
    ASSERT_FALSE(entries.empty()) << "cannot read " << CL_BENCH_SIM_JSON;

    const SecurityConfig sec = SecurityConfig::bits80();
    unsigned checked = 0;
    for (const std::string &bn : benchmarkNames()) {
        const HomProgram hp = benchmarkByName(bn, sec);
        for (const char *cn : {"craterlake", "f1plus"}) {
            SCOPED_TRACE(bn + " x " + cn);
            const ChipConfig cfg = ChipConfig::byName(cn);
            const Entry *want = nullptr;
            for (const Entry &e : entries) {
                if (e.str("benchmark") == bn && e.str("config") == cfg.name &&
                    e.str("security") == sec.name &&
                    e.str("schedule") == "none")
                    want = &e;
            }
            ASSERT_NE(want, nullptr) << "no snapshot entry";

            Lowering lower(cfg, ScheduleMode::None);
            const Program prog = lower.lower(hp);
            const SimStats s = Simulator(cfg).run(prog);

            EXPECT_EQ(hp.ops.size(), want->num("hom_ops"));
            EXPECT_EQ(prog.size(), want->num("instructions"));
            EXPECT_EQ(s.cycles, want->num("cycles"));
            EXPECT_EQ(s.kshLoadWords, want->num("ksh_load"));
            EXPECT_EQ(s.inputLoadWords, want->num("input_load"));
            EXPECT_EQ(s.plainLoadWords, want->num("plain_load"));
            EXPECT_EQ(s.intermLoadWords, want->num("interm_load"));
            EXPECT_EQ(s.intermStoreWords, want->num("interm_store"));
            EXPECT_EQ(s.outputStoreWords, want->num("output_store"));
            EXPECT_EQ(s.totalTrafficWords(), want->num("total"));
            EXPECT_EQ(s.rfAccessWords, want->num("rf_access_words"));
            EXPECT_EQ(s.networkWords, want->num("network_words"));
            EXPECT_EQ(programDigest(prog), pinnedDigest(bn, cn));
            // Lowering sizes its instruction array once, up front: a
            // regrown array would hold up to twice the instructions.
            EXPECT_LE(prog.insts.capacity(), prog.size() + prog.size() / 64);
            ++checked;
        }
    }
    EXPECT_EQ(checked, 16u);
}

} // namespace
} // namespace cl
