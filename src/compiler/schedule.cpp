#include "schedule.h"

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "sim/simulator.h"

namespace cl {

const char *
scheduleModeName(ScheduleMode m)
{
    switch (m) {
      case ScheduleMode::None:
        return "none";
      case ScheduleMode::List:
        return "list";
    }
    CL_PANIC("bad ScheduleMode");
}

ScheduleMode
scheduleModeByName(const std::string &name)
{
    if (name == "none")
        return ScheduleMode::None;
    if (name == "list")
        return ScheduleMode::List;
    CL_FATAL("unknown schedule mode '", name, "'; valid: none, list");
}

namespace {

constexpr std::uint32_t noUse = std::numeric_limits<std::uint32_t>::max();

/**
 * Dependence graph over value ids, built in one forward scan; every
 * edge points from a lower to a higher original instruction id.
 *   true:   last writer -> reader
 *   output: last writer -> next writer
 *   anti:   readers since last write -> next writer
 */
struct DepGraph
{
    std::vector<std::vector<std::uint32_t>> succs;
    std::vector<std::vector<std::uint32_t>> preds;
    std::vector<std::uint64_t> height; // critical path to any sink
    std::uint64_t critical = 0;
    std::size_t edges = 0;

    explicit DepGraph(const Program &prog)
    {
        const std::size_t n = prog.insts.size();
        succs.resize(n);
        preds.resize(n);

        constexpr std::int64_t none = -1;
        std::vector<std::int64_t> lastWriter(prog.values.size(), none);
        std::vector<std::vector<std::uint32_t>> readersSince(
            prog.values.size());

        std::vector<std::uint32_t> scratch;
        for (std::uint32_t i = 0; i < n; ++i) {
            const PolyInst &inst = prog.insts[i];
            scratch.clear();
            for (std::uint32_t r : inst.reads) {
                if (lastWriter[r] != none)
                    scratch.push_back(
                        static_cast<std::uint32_t>(lastWriter[r]));
            }
            for (std::uint32_t w : inst.writes) {
                if (lastWriter[w] != none &&
                    lastWriter[w] != static_cast<std::int64_t>(i))
                    scratch.push_back(
                        static_cast<std::uint32_t>(lastWriter[w]));
                for (std::uint32_t reader : readersSince[w]) {
                    if (reader != i)
                        scratch.push_back(reader);
                }
                readersSince[w].clear();
            }
            std::sort(scratch.begin(), scratch.end());
            scratch.erase(
                std::unique(scratch.begin(), scratch.end()),
                scratch.end());
            for (std::uint32_t p : scratch)
                succs[p].push_back(i);
            preds[i] = scratch;
            edges += scratch.size();
            // Register this instruction's accesses for later edges.
            for (std::uint32_t r : inst.reads)
                readersSince[r].push_back(i);
            for (std::uint32_t w : inst.writes)
                lastWriter[w] = i;
        }

        height.assign(n, 0);
        for (std::size_t i = n; i-- > 0;) {
            std::uint64_t h = 0;
            for (std::uint32_t s : succs[i])
                h = std::max(h, height[s]);
            height[i] = h + prog.insts[i].duration;
            critical = std::max(critical, height[i]);
        }
    }
};

/**
 * Rebuild a program with its instructions in `order`. Value ids are
 * untouched; producer/consumer links — the Belady manager's
 * future-use information — are reconstructed by addInst so they
 * reflect the new issue order.
 */
Program
reorderProgram(const Program &prog,
               const std::vector<std::uint32_t> &order)
{
    Program out;
    out.name = prog.name;
    out.n = prog.n;
    out.values = prog.values;
    for (Value &v : out.values) {
        v.producer = -1;
        v.consumers.clear();
    }
    for (std::uint32_t id : order) {
        PolyInst inst = prog.insts[id];
        inst.id = 0; // reassigned by addInst
        out.addInst(std::move(inst));
    }
    return out;
}

std::uint64_t
simulatedCycles(const Program &prog, const ChipConfig &cfg)
{
    Simulator sim(cfg);
    return sim.run(prog).cycles;
}

/**
 * Residency-affinity list scheduling pass.
 *
 * The workloads are memory-bound: the simulator's cycle count is
 * dominated by the serialized memory channel, and the register file
 * is run by a Belady MIN manager whose miss rate is a pure function
 * of the instruction order. The emitted order re-loads shared
 * keyswitch hints and plaintexts many times over, so the scheduler's
 * register-pressure lookahead is the primary priority, not a
 * modifier: it replays the Belady manager against the schedule being
 * built and prefers, inside a window anchored at the oldest
 * unscheduled instruction, a ready instruction that shrinks the live
 * set (last readers of dying intermediates) or that runs entirely
 * out of resident values. Hoists that would allocate are admitted
 * only while the replayed register file keeps a full value's worth
 * of headroom — an allocation hoisted into a full RF stretches its
 * own live range and evicts a far-use hint to make room, which is
 * exactly the traffic this pass exists to remove. Ties and fallbacks
 * follow the emission order, which keeps producer/consumer chains
 * fused and interleaves independent keyswitch pipelines only where
 * the residency model shows a benefit; with nothing to gain, the
 * emission order is preserved.
 */
std::vector<std::uint32_t>
residencyOrder(const Program &prog, const DepGraph &g,
               const ChipConfig &cfg, bool heightWhenUnpressured)
{
    constexpr std::uint32_t window = 32;
    const std::size_t n = prog.insts.size();
    const std::size_t nv = prog.values.size();
    const std::uint64_t capacity = cfg.rfWords();

    std::vector<std::uint32_t> predCount(n, 0);
    for (std::uint32_t i = 0; i < n; ++i)
        predCount[i] = static_cast<std::uint32_t>(g.preds[i].size());

    std::vector<char> scheduled(n, 0);
    std::uint32_t oldest = 0; // lowest-numbered unscheduled inst

    // Unique read operands per instruction.
    std::vector<std::vector<std::uint32_t>> ureads(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        ureads[i].assign(prog.insts[i].reads.begin(),
                         prog.insts[i].reads.end());
        std::sort(ureads[i].begin(), ureads[i].end());
        ureads[i].erase(
            std::unique(ureads[i].begin(), ureads[i].end()),
            ureads[i].end());
    }

    // Unscheduled reader-instruction count per value (for spotting a
    // value's last reader, which dead-frees it).
    std::vector<std::uint32_t> consLeft(nv, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t r : ureads[i])
            ++consLeft[r];
    }

    // Belady-replay state: resident set, per-value next unscheduled
    // consumer (the eviction key), and the ordered victim queue.
    std::vector<char> resident(nv, 0);
    std::vector<std::uint32_t> usePtr(nv, 0);
    std::vector<std::uint32_t> beladyKey(nv, noUse);
    std::uint64_t used = 0;
    std::set<std::pair<std::uint32_t, std::uint32_t>> byUse;

    auto nextUse = [&](std::uint32_t vid) -> std::uint32_t {
        const auto &cons = prog.values[vid].consumers;
        std::uint32_t &p = usePtr[vid];
        while (p < cons.size() && scheduled[cons[p]])
            ++p;
        return p < cons.size() ? cons[p] : noUse;
    };

    auto markResident = [&](std::uint32_t vid) {
        resident[vid] = 1;
        used += prog.values[vid].words;
        beladyKey[vid] = nextUse(vid);
        byUse.emplace(beladyKey[vid], vid);
    };

    auto evict = [&](std::uint32_t vid) {
        byUse.erase({beladyKey[vid], vid});
        resident[vid] = 0;
        used -= prog.values[vid].words;
    };

    auto makeRoom = [&](std::uint64_t need,
                        const std::vector<std::uint32_t> &pinned) {
        while (used + need > capacity) {
            auto it = byUse.rbegin();
            while (it != byUse.rend() &&
                   std::find(pinned.begin(), pinned.end(),
                             it->second) != pinned.end())
                ++it;
            if (it == byUse.rend())
                return false; // working set exceeds the RF: streams
            evict(it->second);
        }
        return true;
    };

    // The word-delta the register file would see from issuing an
    // instruction now: loads for non-resident operands, an allocation
    // for each fresh result, minus intermediates this instruction
    // reads for the last time (dead-freed on retire).
    auto liveDelta = [&](std::uint32_t i) -> std::int64_t {
        std::int64_t d = 0;
        for (std::uint32_t r : ureads[i]) {
            const Value &v = prog.values[r];
            if (!resident[r])
                d += static_cast<std::int64_t>(v.words);
            else if (consLeft[r] == 1 &&
                     v.kind == ValueKind::Intermediate)
                d -= static_cast<std::int64_t>(v.words);
        }
        for (std::uint32_t w : prog.insts[i].writes) {
            if (!resident[w])
                d += static_cast<std::int64_t>(prog.values[w].words);
        }
        return d;
    };

    auto loadCost = [&](std::uint32_t i) -> std::uint64_t {
        std::uint64_t c = 0;
        for (std::uint32_t r : ureads[i]) {
            if (!resident[r])
                c += prog.values[r].words;
        }
        return c;
    };

    std::set<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (predCount[i] == 0)
            ready.insert(i);
    }

    std::vector<std::uint32_t> order;
    order.reserve(n);
    std::vector<std::uint32_t> pinned;

    // Issue one instruction: replay the residency the simulator will
    // see (load misses, result allocation, dead-intermediate retire)
    // and release its dependence successors.
    auto commit = [&](std::uint32_t id) {
        scheduled[id] = 1;
        ready.erase(id);
        while (oldest < n && scheduled[oldest])
            ++oldest;
        const PolyInst &inst = prog.insts[id];

        pinned = ureads[id];
        pinned.insert(pinned.end(), inst.writes.begin(),
                      inst.writes.end());
        for (std::uint32_t r : ureads[id]) {
            if (!resident[r] && makeRoom(prog.values[r].words, pinned))
                markResident(r);
        }
        for (std::uint32_t w : inst.writes) {
            if (!resident[w] && makeRoom(prog.values[w].words, pinned))
                markResident(w);
        }
        for (std::uint32_t r : ureads[id]) {
            --consLeft[r];
            if (!resident[r])
                continue;
            byUse.erase({beladyKey[r], r});
            const std::uint32_t nk = nextUse(r);
            if (nk == noUse &&
                prog.values[r].kind == ValueKind::Intermediate) {
                // Dead: freed without writeback, as in the simulator.
                resident[r] = 0;
                used -= prog.values[r].words;
            } else {
                beladyKey[r] = nk;
                byUse.emplace(nk, r);
            }
        }

        for (std::uint32_t s : g.succs[id]) {
            if (--predCount[s] == 0)
                ready.insert(s);
        }
        order.push_back(id);
    };

    while (oldest < n) {
        const std::uint32_t fence =
            oldest > noUse - window ? noUse : oldest + window;

        // Pick the eligible instruction. While the register file is
        // mostly empty nothing can be saved by residency ordering, so
        // the dual-mode variant falls back to classic critical-path
        // (tallest-height) selection there, which compresses the
        // makespan of compute-bound stretches.
        std::uint32_t best = *ready.begin();
        if (heightWhenUnpressured && used * 2 <= capacity) {
            std::uint32_t pick = noUse;
            for (std::uint32_t cid : ready) {
                if (cid >= fence)
                    break;
                if (pick == noUse || g.height[cid] > g.height[pick])
                    pick = cid;
            }
            commit(pick == noUse ? oldest : pick);
            continue;
        }
        std::int64_t bestDelta = 0;
        std::uint64_t bestCost = 0;
        bool first = true;
        for (std::uint32_t cid : ready) {
            if (cid >= fence)
                break; // set is ordered; everything after is fenced
            const std::int64_t d = liveDelta(cid);
            const std::uint64_t c = loadCost(cid);
            bool better;
            if (first) {
                better = true;
            } else if (d != bestDelta) {
                better = d < bestDelta;
            } else if (c != bestCost) {
                better = c < bestCost;
            } else if (g.height[cid] != g.height[best]) {
                better = g.height[cid] > g.height[best];
            } else {
                better = false; // ids ascend: keep the earlier one
            }
            if (better) {
                best = cid;
                bestDelta = d;
                bestCost = c;
                first = false;
            }
        }
        // A candidate that grows the live set is hoisted only if it
        // loads nothing and its allocations fit without evicting;
        // otherwise continue the emission order (`oldest` is always
        // dependence-ready: every predecessor precedes it).
        const bool hoistOk =
            bestDelta <= 0 ||
            (bestCost == 0 &&
             used + static_cast<std::uint64_t>(bestDelta) <=
                 capacity);
        commit(hoistOk ? best : oldest);
    }
    CL_ASSERT(order.size() == n, "scheduler lost instructions: ",
              order.size(), " of ", n);
    return order;
}

/**
 * Makespan refinement for small programs. The residency pass above
 * targets memory traffic, but compact programs fit the register
 * file outright and are bound instead by dependence chains stalling
 * the in-order issue head against the serialized memory and network
 * timelines — effects no static priority captures faithfully. Since
 * such programs are cheap to simulate, refine by measurement: a
 * deterministic seeded local search that moves one instruction at a
 * time within its dependence slack and keeps a move only when the
 * simulator reports strictly fewer cycles. Every intermediate order
 * respects the dependence graph, so legality is invariant.
 */
std::vector<std::uint32_t>
refineOrder(const Program &prog, const DepGraph &g,
            const ChipConfig &cfg, std::vector<std::uint32_t> order,
            std::uint64_t &bestCycles)
{
    const std::size_t n = order.size();
    std::vector<std::uint32_t> pos(n);
    for (std::uint32_t p = 0; p < n; ++p)
        pos[order[p]] = p;

    // Fixed seed: the refinement is part of the compiler and must be
    // reproducible run-to-run and thread-count-independent.
    std::mt19937 rng(0x5ca1ab1e);
    const unsigned budget = 512;

    for (unsigned it = 0; it < budget; ++it) {
        const std::uint32_t x = static_cast<std::uint32_t>(rng() % n);
        // Feasible positions for x: after every predecessor, before
        // every successor (positions refer to the current order).
        std::uint32_t lo = 0;
        std::uint32_t hi = static_cast<std::uint32_t>(n - 1);
        for (std::uint32_t p : g.preds[x])
            lo = std::max(lo, pos[p] + 1);
        for (std::uint32_t s : g.succs[x])
            hi = std::min(hi, pos[s] - 1);
        if (lo >= hi)
            continue;
        const std::uint32_t target =
            lo + static_cast<std::uint32_t>(rng() % (hi - lo + 1));
        const std::uint32_t cur = pos[x];
        if (target == cur)
            continue;

        std::vector<std::uint32_t> cand = order;
        if (target < cur) {
            std::rotate(cand.begin() + target, cand.begin() + cur,
                        cand.begin() + cur + 1);
        } else {
            std::rotate(cand.begin() + cur, cand.begin() + cur + 1,
                        cand.begin() + target + 1);
        }
        const std::uint64_t cycles =
            simulatedCycles(reorderProgram(prog, cand), cfg);
        if (cycles < bestCycles) {
            bestCycles = cycles;
            order = std::move(cand);
            for (std::uint32_t p = 0; p < n; ++p)
                pos[order[p]] = p;
        }
    }
    return order;
}

} // namespace

Program
scheduleProgram(const Program &prog, const ChipConfig &cfg,
                ScheduleMode mode, ScheduleStats *stats)
{
    if (stats)
        *stats = ScheduleStats{};
    if (mode == ScheduleMode::None || prog.insts.size() <= 1)
        return prog;

    const std::size_t n = prog.insts.size();
    const DepGraph g(prog);

    // The scheduler never ships a slower program than the lowering
    // emitted: every candidate order is measured on the actual
    // simulator and the earliest candidate wins ties, with the
    // emission order first. This costs a few extra simulations per
    // compile and turns "must not regress" into an invariant.
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t cycles = simulatedCycles(prog, cfg);

    for (bool dual : {false, true}) {
        std::vector<std::uint32_t> cand =
            residencyOrder(prog, g, cfg, dual);
        const std::uint64_t c =
            simulatedCycles(reorderProgram(prog, cand), cfg);
        if (c < cycles) {
            cycles = c;
            order = std::move(cand);
        }
    }

    // Small programs additionally get measured local search.
    constexpr std::size_t refineLimit = 1536;
    if (n <= refineLimit)
        order = refineOrder(prog, g, cfg, std::move(order), cycles);

    std::size_t movedCount = 0;
    for (std::uint32_t p = 0; p < n; ++p) {
        if (order[p] != p)
            ++movedCount;
    }

    Program out = reorderProgram(prog, order);
    out.validate();

    if (stats) {
        stats->depEdges = g.edges;
        stats->moved = movedCount;
        stats->criticalPathCycles = g.critical;
    }
    return out;
}

std::uint64_t
homOpWeight(const HomOp &op)
{
    // Coarse host-cost model in "elementwise pass" units: keyswitching
    // ops pay the digit lift + inner product + mod-down, ct-ct multiply
    // adds the tensor product on top, plain ops are one or two passes.
    // Only the *relative* order matters — heights steer the ready
    // queue toward the critical path, they never change what runs.
    switch (op.kind) {
    case HomOpKind::Mul:
        return 12;
    case HomOpKind::Rotate:
    case HomOpKind::Conjugate:
        return 10;
    case HomOpKind::ModRaise:
        return 6;
    case HomOpKind::Rescale:
    case HomOpKind::MulPlain:
        return 3;
    case HomOpKind::Input:
        return 2; // encryption on the host path
    default:
        return 1; // Add/AddPlain/LevelDrop/Output
    }
}

HomDepGraph
buildHomDepGraph(const HomProgram &prog)
{
    const std::size_t n = prog.ops.size();
    HomDepGraph g;
    g.succs.resize(n);
    g.predCount.assign(n, 0);
    g.height.assign(n, 0);

    std::vector<std::uint32_t> scratch;
    for (std::uint32_t i = 0; i < n; ++i) {
        const HomOp &op = prog.ops[i];
        CL_ASSERT(op.id == i, "HomProgram ids must be dense");
        scratch.clear();
        for (std::uint32_t a : op.args) {
            CL_ASSERT(a < i, "HomProgram args must be earlier ops");
            scratch.push_back(a);
        }
        std::sort(scratch.begin(), scratch.end());
        scratch.erase(std::unique(scratch.begin(), scratch.end()),
                      scratch.end());
        for (std::uint32_t a : scratch) {
            g.succs[a].push_back(i);
            ++g.predCount[i];
            ++g.edges;
        }
    }

    for (std::size_t i = n; i-- > 0;) {
        std::uint64_t succ_max = 0;
        for (std::uint32_t s : g.succs[i])
            succ_max = std::max(succ_max, g.height[s]);
        g.height[i] = homOpWeight(prog.ops[i]) + succ_max;
        g.critical = std::max(g.critical, g.height[i]);
    }
    return g;
}

} // namespace cl
