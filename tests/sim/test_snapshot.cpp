/**
 * Pins the simulator against the committed BENCH_sim.json snapshot:
 * every unscheduled ("schedule": "none") entry — each workload
 * benchmark on craterlake and f1plus at 80-bit security, lowered and
 * simulated as `sim_trace --matrix` does — must reproduce its
 * instruction count, cycles and traffic counters exactly.
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
            ++checked;
        }
    }
    EXPECT_EQ(checked, 16u);
}

} // namespace
} // namespace cl
