/**
 * @file
 * Lowering homomorphic operations to accelerator instructions
 * (Sec 6, step 3).
 *
 * Each keyswitch becomes up to three chained FU pipelines (mod-up,
 * hint MAC, mod-down — Fig 8 shows the MAC/mod-down chain); all other
 * polynomial computations become single-FU instructions. When the
 * configuration lacks the CRB or chaining (Table 4 ablations), the
 * change-RNS-base MACs are emitted as port-hungry multiply/add ops —
 * reproducing the register-file bottleneck that motivates the CRB.
 */

#ifndef CL_COMPILER_LOWER_H
#define CL_COMPILER_LOWER_H

#include "compiler/homprogram.h"
#include "compiler/schedule.h"
#include "hw/config.h"

namespace cl {

/** Lowering statistics for cross-checks against Table 1. */
struct LowerStats
{
    std::uint64_t keyswitches = 0;
    std::uint64_t nttVectors = 0;  ///< Residue-poly (I)NTT count.
    std::uint64_t mulVectors = 0;  ///< Element-wise multiply count.
    std::uint64_t addVectors = 0;
    std::uint64_t crbMacVectors = 0;

    bool operator==(const LowerStats &) const = default;
};

class Lowering
{
  public:
    explicit Lowering(ChipConfig cfg,
                      ScheduleMode schedule = ScheduleMode::None)
        : cfg_(std::move(cfg)), schedule_(schedule)
    {
    }

    /** Translate a homomorphic program into a vector program; under
     *  ScheduleMode::List the emitted order is then rewritten by the
     *  list scheduler (compiler/schedule.h). */
    Program lower(const HomProgram &hp);

    /** Counts of the most recent lower() call. */
    const LowerStats &stats() const { return stats_; }

    /** Filled by the most recent lower() when scheduling ran (zeros
     *  under None). */
    const ScheduleStats &scheduleStats() const { return schedStats_; }

  private:
    ChipConfig cfg_;
    ScheduleMode schedule_;
    LowerStats stats_;
    ScheduleStats schedStats_;
};

} // namespace cl

#endif // CL_COMPILER_LOWER_H
