/**
 * @file
 * CPU baseline cost model (Sec 8: 32-core Threadripper PRO 3975WX
 * running state-of-the-art FHE libraries).
 *
 * The model counts the scalar modular operations and memory traffic
 * of each homomorphic operation (the Table 1 stage terms of
 * util/opcost.h, which the lowering and the host read too) and
 * divides by kernel throughputs *measured on this machine* with our
 * own NTT and MAC kernels, scaled to the paper's core count. The
 * calibration is reported alongside every result (see EXPERIMENTS.md).
 */

#ifndef CL_BASELINE_CPUMODEL_H
#define CL_BASELINE_CPUMODEL_H

#include "compiler/homprogram.h"

namespace cl {

/** Measured single-core kernel throughputs. */
struct CpuKernelRates
{
    double modmulPerSec = 0;      ///< Standalone Shoup modmuls/s.
    double nttButterflyPerSec = 0;///< NTT butterflies/s.
    double macPerSec = 0;         ///< changeRNSBase-style MACs/s.
};

/** Time our own kernels on the host (takes ~100 ms). */
CpuKernelRates measureCpuKernels();

struct CpuModelParams
{
    unsigned cores = 32;        ///< The paper's CPU baseline.
    double parallelEff = 0.45;  ///< Multicore scaling efficiency
                                ///  of FHE libraries (memory-bound).
    double memBandwidth = 1.6e11; ///< Bytes/s (8-ch DDR4-3200).
};

class CpuModel
{
  public:
    CpuModel(CpuKernelRates rates, CpuModelParams params = {})
        : rates_(rates), params_(params)
    {
    }

    /** Estimated execution time in seconds. */
    double run(const HomProgram &hp) const;

    /** Scalar 28/64-bit multiply count of the program (for Fig 3/4). */
    static double scalarMultiplies(const HomProgram &hp);

  private:
    CpuKernelRates rates_;
    CpuModelParams params_;
};

} // namespace cl

#endif // CL_BASELINE_CPUMODEL_H
