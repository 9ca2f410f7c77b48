/**
 * @file
 * Reproduces Fig 4: keyswitch-hint footprint and 28-bit multiply
 * count for standard vs boosted keyswitching, as a function of the
 * multiplicative budget L (N = 64K).
 */

#include <cstdio>

#include "util/opcost.h"
#include "util/table.h"

int
main()
{
    using namespace cl;

    std::printf("=== Fig 4: standard vs boosted keyswitching scaling "
                "===\n\n");

    const std::size_t n = 1ull << 16;
    const double word_bytes = 3.5;
    const double logn = 16;

    TextTable t({"L", "std footprint", "boosted", "std mults (1e9)",
                 "boosted"});
    // 28-bit multiplies of a keyswitch: NTT butterflies, CRB MACs and
    // the other multiplies.
    auto mults = [&](const opcost::KeySwitch &k) {
        return (k.chipNtts() * n * logn / 2 +
                static_cast<double>(k.chipCrbMacs() + k.chipMuls()) * n) /
               1e9;
    };
    double std60 = 0, boost60 = 0;
    for (unsigned lv = 4; lv <= 60; lv += 8) { // 4, 12, ..., 60
        const opcost::KeySwitch s = opcost::keySwitch(lv, 1, n); // standard
        const opcost::KeySwitch b = opcost::keySwitch(lv, lv, n); // boosted
        const double s_gb = s.hintWords * word_bytes / 1e9;
        const double b_gb = b.hintWords * word_bytes / 1e9;
        const double s_mults = mults(s);
        const double b_mults = mults(b);
        std60 = s_gb;
        boost60 = b_gb;
        t.addRow({std::to_string(lv),
                  s_gb >= 0.1 ? TextTable::num(s_gb, 2) + " GB"
                              : TextTable::num(s_gb * 1e3, 1) + " MB",
                  TextTable::num(b_gb * 1e3, 1) + " MB",
                  TextTable::num(s_mults, 2), TextTable::num(b_mults, 2)});
    }
    t.print();

    std::printf("\nAt L=60: standard hint = %.2f GB (paper: 1.7 GB), "
                "boosted = %.1f MB (paper: 52.5 MB)\n",
                std60, boost60 * 1e3);
    const bool ok = std60 > 1.4 && std60 < 2.0 && boost60 * 1e3 > 45 &&
                    boost60 * 1e3 < 60;
    std::printf("Footprint check: %s\n", ok ? "PASS" : "FAIL");
    std::printf("\nBoth curves grow with L, but standard keyswitching's "
                "footprint and multiply count grow quadratically — the "
                "reason prior accelerators cannot scale to deep FHE "
                "(Sec 3).\n");
    return ok ? 0 : 1;
}
