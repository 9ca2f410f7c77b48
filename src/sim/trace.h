/**
 * @file
 * Instruction-level observability for the cycle simulator.
 *
 * The simulator optionally drives a TraceSink with one record per
 * PolyInst (issue/start/finish times plus the resource that bound the
 * start) and one record per register-file residency event (load,
 * spill, stream, dead-free, output store). The default TraceRecorder
 * keeps everything and renders two artifacts:
 *
 *  - a Chrome trace_event JSON (chrome://tracing / Perfetto) with one
 *    track per FU class plus memory-channel and network tracks;
 *  - a plain-text bottleneck report: per-FU and memory utilization
 *    (the data behind Fig 9), stall attribution by binding resource,
 *    the top-k stalled instructions, and utilization over time.
 *
 * Tracing is strictly observational: a null sink keeps Simulator::run
 * on the untraced code path and its results bit-identical.
 */

#ifndef CL_SIM_TRACE_H
#define CL_SIM_TRACE_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hw/config.h"
#include "isa/program.h"
#include "sim/stats.h"

namespace cl {

/** The resource that determined an instruction's start time. */
enum class StallReason
{
    None,    ///< Issued at the in-order point; nothing blocked it.
    Operand, ///< Waited for an operand load or producer.
    Fu,      ///< All requested units of an FU class were busy.
    RfPorts, ///< Register-file ports exhausted.
    Network, ///< Inter-group network still draining a transfer.
};

const char *stallReasonName(StallReason r);

/** What happened to a value on the memory channel / register file.
 *  Together these cover *every* resident-set mutation, so a replay of
 *  the event stream reconstructs register-file occupancy exactly
 *  (verify/verifier.h leans on this). */
enum class ResidencyAction
{
    Load,        ///< Fetched into the register file.
    Stream,      ///< Consumed straight from memory (no capacity).
    Spill,       ///< Live intermediate written back under pressure.
    StreamStore, ///< Result streamed back to memory (no capacity).
    StoreOut,    ///< Output streamed to the host.
    DeadFree,    ///< Freed without writeback after the last use.
    Alloc,       ///< Result space reserved in the register file.
    Evict,       ///< Clean (or dead) copy dropped without writeback.
};

const char *residencyActionName(ResidencyAction a);

/** Timing record for one instruction. */
struct InstTrace
{
    std::uint32_t id = 0;
    std::string mnemonic;         ///< instName() of the instruction.
    std::uint64_t issueReady = 0; ///< In-order issue point.
    std::uint64_t operandsAt = 0; ///< All reads resident or streamed.
    std::uint64_t start = 0;
    std::uint64_t finish = 0;
    StallReason binding = StallReason::None;
    FuType bindingFu = FuType::Ntt; ///< Valid iff binding == Fu.
    std::vector<FuUse> fus;         ///< Units actually acquired.
    unsigned rfPorts = 0;
    std::uint64_t networkWords = 0;
    std::uint64_t netBusyUntil = 0; ///< Network occupancy end (if any).

    /** Cycles lost between the in-order point and issue. */
    std::uint64_t stall() const { return start - issueReady; }
};

/** One residency / memory-channel event. */
struct ResidencyEvent
{
    ResidencyAction action = ResidencyAction::Load;
    std::uint32_t valueId = 0;
    std::uint32_t instId = 0; ///< Instruction on whose behalf.
    ValueKind kind = ValueKind::Intermediate;
    std::string label; ///< valueName() of the value.
    std::uint64_t words = 0;
    std::uint64_t memStart = 0; ///< Memory-channel window; equal
    std::uint64_t memEnd = 0;   ///< start/end means no transfer.
};

/** Observer interface driven by Simulator::run when tracing is on. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void onInst(const InstTrace &t) = 0;
    virtual void onResidency(const ResidencyEvent &e) = 0;
};

/** Default sink: records the full trace and renders the artifacts. */
class TraceRecorder : public TraceSink
{
  public:
    void onInst(const InstTrace &t) override { insts_.push_back(t); }
    void
    onResidency(const ResidencyEvent &e) override
    {
        residency_.push_back(e);
    }

    const std::vector<InstTrace> &insts() const { return insts_; }
    const std::vector<ResidencyEvent> &
    residency() const
    {
        return residency_;
    }

    /** Busy unit-cycles per FU class reconstructed from the trace;
     *  must agree exactly with SimStats::fuBusy. */
    std::array<std::uint64_t, numFuTypes> fuBusyFromTrace() const;

    /** Aggregate FU utilization over @p cycles, per Fig 9's
     *  definition (must match SimStats::fuUtilization). */
    double fuUtilization(const ChipConfig &cfg,
                         std::uint64_t cycles) const;

    /** Chrome trace_event JSON: compute tracks per FU class, plus
     *  memory-channel and network tracks. */
    void writeChromeTrace(std::ostream &os, const ChipConfig &cfg) const;

    /** Plain-text critical-path/bottleneck report. */
    void writeBottleneckReport(std::ostream &os, const ChipConfig &cfg,
                               const SimStats &stats,
                               std::size_t top_k = 10,
                               std::size_t buckets = 16) const;

  private:
    std::vector<InstTrace> insts_;
    std::vector<ResidencyEvent> residency_;
};

} // namespace cl

#endif // CL_SIM_TRACE_H
