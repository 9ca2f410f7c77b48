#include "simulator.h"

#include <algorithm>
#include <limits>
#include <set>

#include "sim/trace.h"
#include "sim/unitpool.h"

namespace cl {

namespace {

constexpr std::uint32_t noUse = std::numeric_limits<std::uint32_t>::max();

} // namespace

SimStats
Simulator::run(const Program &prog, TraceSink *trace)
{
    SimStats stats;

    // Instruction currently being issued (for trace attribution).
    std::uint32_t cur_inst = 0;
    auto note = [&](ResidencyAction action, std::uint32_t vid,
                    std::uint64_t mem_start, std::uint64_t mem_end) {
        if (!trace)
            return;
        const Value &v = prog.values[vid];
        trace->onResidency({action, vid, cur_inst, v.kind, valueName(v),
                            v.words, mem_start, mem_end});
    };

    // --- Resource pools ---
    std::vector<UnitPool> fuPools;
    fuPools.reserve(numFuTypes);
    for (unsigned t = 0; t < numFuTypes; ++t)
        fuPools.emplace_back(
            std::max(1u, cfg_.fuCount(static_cast<FuType>(t))));
    UnitPool ports(cfg_.rfPorts);

    // Network: bandwidth-limited single resource.
    std::uint64_t networkFreeAt = 0;
    const double net_bw = cfg_.networkWordsPerCycle();
    const double net_traffic_scale =
        cfg_.network == NetworkType::Crossbar ? 2.4 : 1.0;

    // Memory channel: decoupled timeline (Sec 4.1: decoupled data
    // orchestration — transfers run ahead of compute).
    std::uint64_t memFreeAt = 0;
    const double mem_bw = cfg_.memWordsPerCycle();

    // --- Register-file residency with Belady MIN eviction (Sec 6) ---
    const std::uint64_t capacity = cfg_.rfWords();
    std::uint64_t used = 0;
    struct Resident
    {
        bool resident = false;
        std::uint64_t readyAt = 0;
        bool dirty = false;  ///< On-chip-produced; eviction spills it.
        std::size_t usePtr = 0; ///< Next index into consumers.
    };
    std::vector<Resident> res(prog.values.size());

    auto next_use = [&](std::uint32_t vid) -> std::uint32_t {
        const auto &v = prog.values[vid];
        const auto &r = res[vid];
        return r.usePtr < v.consumers.size() ? v.consumers[r.usePtr]
                                             : noUse;
    };

    // Resident values ordered by next use (latest use = best victim).
    std::set<std::pair<std::uint32_t, std::uint32_t>> byUse;

    auto resident_insert = [&](std::uint32_t vid) {
        byUse.emplace(next_use(vid), vid);
    };
    auto resident_erase = [&](std::uint32_t vid, std::uint32_t old_use) {
        byUse.erase({old_use, vid});
    };

    auto account_load = [&](const Value &v) {
        switch (v.kind) {
          case ValueKind::KeySwitchHint:
            stats.kshLoadWords += v.words;
            break;
          case ValueKind::Input:
            stats.inputLoadWords += v.words;
            break;
          case ValueKind::Plaintext:
            stats.plainLoadWords += v.words;
            break;
          default:
            stats.intermLoadWords += v.words;
            break;
        }
    };

    // Evict furthest-next-use resident values until `need` words fit.
    // Returns false when nothing evictable remains (the instruction's
    // working set exceeds the register file — operands then stream
    // from memory, the regime small register files fall into, Fig 11).
    auto make_room = [&](std::uint64_t need,
                         const std::vector<std::uint32_t> &pinned) {
        while (used + need > capacity) {
            // Walk from the furthest next use down, skipping pinned.
            auto it = byUse.rbegin();
            while (it != byUse.rend() &&
                   std::find(pinned.begin(), pinned.end(), it->second) !=
                       pinned.end())
                ++it;
            if (it == byUse.rend())
                return false;
            const std::uint32_t victim = it->second;
            const std::uint32_t victim_use = it->first;
            const Value &v = prog.values[victim];
            if (res[victim].dirty) {
                // Spill a still-live intermediate. A dirty victim
                // with no next use is one the program never reads:
                // its bits exist nowhere off-chip, so dropping it
                // without writeback would silently discard a result
                // (and under-charge store traffic). Consumed-out
                // intermediates never reach this path dirty — retire
                // dead-frees them the moment their last reader runs.
                stats.intermStoreWords += v.words;
                const std::uint64_t dur =
                    static_cast<std::uint64_t>(v.words / mem_bw) + 1;
                note(ResidencyAction::Spill, victim, memFreeAt,
                     memFreeAt + dur);
                memFreeAt += dur;
                stats.memBusyCycles += dur;
            } else {
                // Clean copy: dropped without writeback.
                note(ResidencyAction::Evict, victim, memFreeAt,
                     memFreeAt);
            }
            resident_erase(victim, victim_use);
            res[victim].resident = false;
            res[victim].dirty = false;
            used -= v.words;
        }
        return true;
    };

    // Ensure a value is (or will be) resident; returns its ready time.
    auto ensure_resident = [&](std::uint32_t vid,
                               const std::vector<std::uint32_t> &pinned)
        -> std::uint64_t {
        Resident &r = res[vid];
        const Value &v = prog.values[vid];
        if (r.resident)
            return r.readyAt;
        const bool fits = make_room(v.words, pinned);
        account_load(v);
        const std::uint64_t dur =
            static_cast<std::uint64_t>(v.words / mem_bw) + 1;
        note(fits ? ResidencyAction::Load : ResidencyAction::Stream, vid,
             memFreeAt, memFreeAt + dur);
        memFreeAt += dur;
        stats.memBusyCycles += dur;
        // The value's bits exist only once its producer has finished:
        // readyAt carries the last writer's finish even while the
        // value is off-chip (spilled or stream-stored), so a reload
        // can never hand data to a consumer before it was computed.
        const std::uint64_t data_at = std::max(memFreeAt, r.readyAt);
        if (fits) {
            r.resident = true;
            r.readyAt = data_at;
            r.dirty = false;
            used += v.words;
            resident_insert(vid);
            return r.readyAt;
        }
        // Streamed: consumed directly from the memory interface;
        // future uses reload.
        return data_at;
    };

    // --- Main in-order issue loop ---
    std::uint64_t prev_issue = 0;
    std::uint64_t last_finish = 0;

    // Per-instruction scratch, reused so that issuing allocates nothing
    // once the buffers reach the widest instruction.
    std::vector<std::uint32_t> pinned;
    std::vector<std::uint32_t> unique_reads;
    std::array<unsigned, numFuTypes> fu_need;

    for (const PolyInst &inst : prog.insts) {
        cur_inst = inst.id;
        std::uint64_t ready = prev_issue;

        // Pin everything this instruction touches.
        pinned.assign(inst.reads.begin(), inst.reads.end());
        pinned.insert(pinned.end(), inst.writes.begin(), inst.writes.end());

        // Operand residency (prefetched on the memory timeline). A
        // value listed twice in `reads` is one operand: it is fetched
        // — and its transfer charged — exactly once per instruction.
        unique_reads.clear();
        for (std::uint32_t vid : inst.reads) {
            if (std::find(unique_reads.begin(), unique_reads.end(),
                          vid) == unique_reads.end())
                unique_reads.push_back(vid);
        }
        for (std::uint32_t vid : unique_reads)
            ready = std::max(ready, ensure_resident(vid, pinned));
        const std::uint64_t operands_at = ready;

        // Space for results.
        for (std::uint32_t vid : inst.writes) {
            if (!res[vid].resident) {
                if (make_room(prog.values[vid].words, pinned)) {
                    res[vid].resident = true;
                    used += prog.values[vid].words;
                    resident_insert(vid);
                    note(ResidencyAction::Alloc, vid, memFreeAt,
                         memFreeAt);
                } else {
                    // Result streams straight back to memory.
                    stats.intermStoreWords += prog.values[vid].words;
                    const std::uint64_t dur = static_cast<std::uint64_t>(
                                                  prog.values[vid].words /
                                                  mem_bw) + 1;
                    note(ResidencyAction::StreamStore, vid, memFreeAt,
                         memFreeAt + dur);
                    memFreeAt += dur;
                    stats.memBusyCycles += dur;
                }
            }
        }

        // Resource acquisition. Track which resource bound the start
        // time (the instruction's binding resource, for the trace).
        std::uint64_t start = ready;
        StallReason binding = operands_at > prev_issue
                                  ? StallReason::Operand
                                  : StallReason::None;
        FuType binding_fu = FuType::Ntt;
        // Same-type FuUse entries compose: the pool must have the
        // *sum* of their units simultaneously free. Querying each use
        // independently would let two batches claim overlapping units.
        fu_need.fill(0);
        for (const FuUse &use : inst.fus) {
            CL_ASSERT(cfg_.fuCount(use.type) > 0, "inst ", inst.id, " (",
                      instName(inst), ") needs absent FU ",
                      fuTypeName(use.type));
            fu_need[static_cast<unsigned>(use.type)] += use.units;
        }
        for (unsigned t = 0; t < numFuTypes; ++t) {
            if (fu_need[t] == 0)
                continue;
            const std::uint64_t at = fuPools[t].earliest(fu_need[t], start);
            if (at > start) {
                binding = StallReason::Fu;
                binding_fu = static_cast<FuType>(t);
                start = at;
            }
        }
        {
            const std::uint64_t at = ports.earliest(inst.rfPorts, start);
            if (at > start) {
                binding = StallReason::RfPorts;
                start = at;
            }
        }

        std::uint64_t net_cycles = 0;
        if (inst.networkWords > 0) {
            net_cycles = static_cast<std::uint64_t>(
                             inst.networkWords * net_traffic_scale /
                             net_bw) + 1;
            if (networkFreeAt > start) {
                binding = StallReason::Network;
                start = networkFreeAt;
            }
        }

        const std::uint64_t finish = start + inst.duration;

        for (unsigned t = 0; t < numFuTypes; ++t) {
            if (fu_need[t] > 0)
                fuPools[t].acquire(fu_need[t], start, inst.duration);
        }
        for (const FuUse &use : inst.fus) {
            stats.fuBusy[static_cast<unsigned>(use.type)] +=
                use.units * inst.duration;
            stats.fuLaneOps[static_cast<unsigned>(use.type)] += use.laneOps;
        }
        ports.acquire(inst.rfPorts, start, inst.duration);
        if (inst.networkWords > 0) {
            networkFreeAt = start + std::max(net_cycles, inst.duration);
            stats.networkWords += static_cast<std::uint64_t>(
                inst.networkWords * net_traffic_scale);
        }
        stats.rfAccessWords += inst.rfWords;

        // Retire: mark writes available, advance read-use pointers.
        for (std::uint32_t vid : inst.writes) {
            res[vid].readyAt = finish;
            res[vid].dirty =
                prog.values[vid].kind == ValueKind::Intermediate;
            if (prog.values[vid].kind == ValueKind::Output) {
                // Stream results straight out (Sec 7: bulk transfers).
                stats.outputStoreWords += prog.values[vid].words;
                const std::uint64_t dur = static_cast<std::uint64_t>(
                                              prog.values[vid].words /
                                              mem_bw) + 1;
                const std::uint64_t at = std::max(memFreeAt, finish);
                note(ResidencyAction::StoreOut, vid, at, at + dur);
                memFreeAt = at + dur;
                stats.memBusyCycles += dur;
            }
        }
        for (std::uint32_t vid : unique_reads) {
            Resident &r = res[vid];
            const auto &cons = prog.values[vid].consumers;
            if (!r.resident) {
                // Streamed operand (or a duplicate already freed):
                // still consume this use, so that a later reload or
                // in-place rewrite keys its Belady entry on a future
                // consumer instead of one already in the past.
                while (r.usePtr < cons.size() && cons[r.usePtr] <= inst.id)
                    ++r.usePtr;
                continue;
            }
            const std::uint32_t old_use = next_use(vid);
            while (r.usePtr < cons.size() && cons[r.usePtr] <= inst.id)
                ++r.usePtr;
            resident_erase(vid, old_use);
            if (r.usePtr >= cons.size() &&
                prog.values[vid].kind == ValueKind::Intermediate) {
                // Dead: free without writeback.
                note(ResidencyAction::DeadFree, vid, finish, finish);
                r.resident = false;
                r.dirty = false;
                used -= prog.values[vid].words;
            } else {
                resident_insert(vid);
            }
        }

        if (trace) {
            InstTrace t;
            t.id = inst.id;
            t.mnemonic = instName(inst);
            t.issueReady = prev_issue;
            t.operandsAt = operands_at;
            t.start = start;
            t.finish = finish;
            t.binding = binding;
            t.bindingFu = binding_fu;
            t.fus.assign(inst.fus.begin(), inst.fus.end());
            t.rfPorts = inst.rfPorts;
            t.networkWords = inst.networkWords;
            if (inst.networkWords > 0)
                t.netBusyUntil = start + std::max(net_cycles,
                                                  inst.duration);
            trace->onInst(t);
        }

        prev_issue = start;
        last_finish = std::max(last_finish, finish);
    }

    stats.cycles = std::max(last_finish, memFreeAt);
    return stats;
}

} // namespace cl
