#include "program.h"

namespace cl {

const char *
valueKindName(ValueKind k)
{
    switch (k) {
      case ValueKind::Input:
        return "input";
      case ValueKind::KeySwitchHint:
        return "ksh";
      case ValueKind::Plaintext:
        return "plaintext";
      case ValueKind::Intermediate:
        return "intermediate";
      case ValueKind::Output:
        return "output";
      default:
        CL_PANIC("bad value kind");
    }
}

const char *
fuTypeName(FuType t)
{
    switch (t) {
      case FuType::Ntt:
        return "NTT";
      case FuType::Automorphism:
        return "Aut";
      case FuType::Multiply:
        return "Mul";
      case FuType::Add:
        return "Add";
      case FuType::Crb:
        return "CRB";
      case FuType::KshGen:
        return "KSHGen";
      case FuType::Transpose:
        return "Transpose";
      default:
        CL_PANIC("bad FU type");
    }
}

std::string
valueName(const Value &v)
{
    if (!v.name.empty())
        return v.name;
    if (v.homOp == noHomOp)
        return v.role;
    return "op" + std::to_string(v.homOp) + "." + v.role;
}

std::string
instName(const PolyInst &inst)
{
    if (inst.homOp == noHomOp)
        return inst.stage;
    return "op" + std::to_string(inst.homOp) + "." + inst.stage;
}

void
Program::validate() const
{
    std::vector<bool> produced(values.size(), false);
    for (const auto &v : values) {
        // Inputs, hints, and plaintexts are live-in; intermediates
        // must be produced by an instruction before use.
        if (v.producer < 0 && v.kind != ValueKind::Intermediate)
            produced[v.id] = true;
    }
    for (const auto &inst : insts) {
        for (auto r : inst.reads) {
            CL_ASSERT(produced[r], "inst ", inst.id, " (", instName(inst),
                      ") reads value ", r, " before production");
        }
        for (auto w : inst.writes) {
            CL_ASSERT(!produced[w] ||
                          values[w].kind == ValueKind::Intermediate,
                      "value ", w, " written twice");
            produced[w] = true;
        }
        CL_ASSERT(inst.duration > 0, "empty instruction ", inst.id);
        CL_ASSERT(inst.n > 0 && isPowerOfTwo(inst.n), "bad N in inst ",
                  inst.id);
    }
}

} // namespace cl
