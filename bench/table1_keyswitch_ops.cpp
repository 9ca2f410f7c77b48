/**
 * @file
 * Reproduces Table 1: operation breakdown of boosted vs standard
 * keyswitching, as formulas in L and evaluated at L=60, from the
 * op-cost terms (util/opcost.h) that the lowering, the CPU model and
 * the host OpCounter all read. Exits non-zero if the terms drift from
 * Table 1's closed forms.
 */

#include <cstdio>

#include "util/opcost.h"
#include "util/table.h"

int
main()
{
    using namespace cl;

    std::printf("=== Table 1: boosted vs standard keyswitching ===\n\n");

    // Per-coefficient counts of the chip's keyswitch: 1 digit of L
    // towers (boosted) or L single-prime digits (standard).
    const unsigned l = 60;
    const opcost::KeySwitch boosted = opcost::keySwitch(l, l, 1);
    const opcost::KeySwitch standard = opcost::keySwitch(l, 1, 1);

    TextTable t({"Op", "Boosted (CRB + other)", "Paper",
                 "Standard", "Paper"});
    auto fmt = [](std::uint64_t crb, std::uint64_t other) {
        return std::to_string(crb) + " + " + std::to_string(other);
    };
    t.addRow({"Mult", fmt(boosted.chipCrbMacs(), boosted.chipMuls()),
              "10800 + 240",
              std::to_string(standard.chipCrbMacs() + standard.chipMuls()),
              "7200"});
    t.addRow({"Add", fmt(boosted.chipCrbMacs(), boosted.chipAdds()),
              "10800 + 120",
              std::to_string(standard.chipCrbMacs() + standard.chipAdds()),
              "7200"});
    t.addRow({"NTT", std::to_string(boosted.chipNtts()), "360",
              std::to_string(standard.chipNtts()), "3600"});
    t.print();

    std::printf("\nFormulas (residue-polynomial counts at level L, "
                "1-digit):\n");
    std::printf("  boosted: mult = 3L^2 + 6L, add = 3L^2 + 8L, "
                "NTT = 6L\n");
    std::printf("  standard: mult = 2L^2 + 6L, add = 2L^2 + 8L, "
                "NTT = (L+1)(L+2)\n");

    // The terms must equal Table 1's closed forms exactly.
    bool ok = true;
    for (unsigned lv : {8u, 16u, 32u, 60u}) {
        const std::uint64_t L = lv;
        const opcost::KeySwitch b = opcost::keySwitch(lv, lv, 1);
        const opcost::KeySwitch s = opcost::keySwitch(lv, 1, 1);
        ok &= b.chipNtts() == 6 * L && b.chipCrbMacs() == 3 * L * L;
        ok &= b.chipMuls() == 6 * L && b.chipAdds() == 8 * L;
        ok &= s.chipNtts() == (L + 1) * (L + 2) && s.chipCrbMacs() == 2 * L;
        ok &= s.chipMuls() == 2 * L * L + 4 * L;
        ok &= s.chipAdds() == 2 * L * L + 6 * L;
    }
    std::printf("\nFormula cross-check at L in {8,16,32,60}: %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
