/**
 * @file
 * The shape of packed CKKS bootstrapping, following the paper's
 * references [11]/[53]: a 4-stage CoeffToSlot, a 3-stage SlotToCoeff,
 * and EvalMod as a degree-63 Chebyshev approximation of a scaled
 * cosine followed by 2 double-angle steps.
 *
 * The functional host Bootstrapper (ckks/bootstrap.h) runs exactly
 * the default shape. The accelerator model (HomBuilder::bootstrap)
 * shares only the two stage counts; it prices EvalMod with its own
 * chip-only constants and ignores chebDegree, doubleAngles and
 * babySteps.
 */

#ifndef CL_UTIL_BOOTSHAPE_H
#define CL_UTIL_BOOTSHAPE_H

namespace cl {

struct BootstrapShape
{
    /** Factors (one level each) of the CoeffToSlot DFT. */
    unsigned ctsStages = 4;
    /** Factors (one level each) of the SlotToCoeff DFT. */
    unsigned stcStages = 3;
    /** Chebyshev degree of the EvalMod cosine. */
    unsigned chebDegree = 63;
    /** Double-angle steps y <- 2y^2 - 1 after the cosine. */
    unsigned doubleAngles = 2;
    /** Baby-step count of the Paterson–Stockmeyer evaluation (power
     *  of two). */
    unsigned babySteps = 16;
};

} // namespace cl

#endif // CL_UTIL_BOOTSHAPE_H
