/** Tests for the accelerator program representation. */

#include <gtest/gtest.h>

#include "isa/program.h"

namespace cl {
namespace {

TEST(Program, ValueAndInstLinking)
{
    Program p;
    p.n = 1 << 12;
    const auto a = p.addValue(ValueKind::Input, 100, "a");
    const auto b = p.addValue(ValueKind::Intermediate, 100, "b");
    PolyInst inst;
    inst.stage = "op";
    inst.n = p.n;
    inst.fus = {{FuType::Add, 1, 100}};
    inst.reads = {a};
    inst.writes = {b};
    inst.duration = 10;
    const auto id = p.addInst(std::move(inst));
    EXPECT_EQ(p.values[a].consumers.size(), 1u);
    EXPECT_EQ(p.values[a].consumers[0], id);
    EXPECT_EQ(p.values[b].producer, static_cast<std::int64_t>(id));
    p.validate();
}

TEST(Program, ValidateDiesOnUseBeforeDef)
{
    Program p;
    p.n = 1 << 12;
    const auto a = p.addValue(ValueKind::Intermediate, 100, "a");
    const auto b = p.addValue(ValueKind::Intermediate, 100, "b");
    PolyInst inst;
    inst.stage = "op";
    inst.n = p.n;
    inst.fus = {{FuType::Add, 1, 100}};
    inst.reads = {a}; // a has no producer and is Intermediate
    inst.writes = {b};
    inst.duration = 10;
    p.addInst(std::move(inst));
    EXPECT_DEATH(p.validate(), "before production");
}

TEST(Program, NamesRenderedOnlyFromOpIdAndStaticParts)
{
    PolyInst inst;
    inst.stage = "ksw.modup";
    EXPECT_EQ(instName(inst), "ksw.modup"); // hand-built: no op id
    inst.homOp = 12;
    EXPECT_EQ(instName(inst), "op12.ksw.modup");

    Program p;
    const auto a = p.addValue(ValueKind::Input, 100, "a");
    const auto r = p.addValue(ValueKind::Intermediate, 100, "raised", 12);
    const auto k = p.addValue(ValueKind::KeySwitchHint, 100);
    p.values[k].name = "rot.1.t1#d1";
    const auto v = p.addValue(ValueKind::Intermediate, 100);
    EXPECT_EQ(valueName(p.values[a]), "a");
    EXPECT_EQ(valueName(p.values[r]), "op12.raised");
    EXPECT_EQ(valueName(p.values[k]), "rot.1.t1#d1");
    EXPECT_EQ(valueName(p.values[v]), "");
}

TEST(Program, InlineOperandsAssertOnOverflow)
{
    PolyInst inst;
    inst.writes = {1};
    EXPECT_EQ(inst.writes.size(), 1u);
    EXPECT_DEATH(inst.writes.push_back(2), "capacity 1 exceeded");
    inst.reads = {1, 2, 3};
    EXPECT_DEATH(inst.reads.push_back(4), "capacity 3 exceeded");
}

TEST(Program, FuTypeNames)
{
    EXPECT_STREQ(fuTypeName(FuType::Ntt), "NTT");
    EXPECT_STREQ(fuTypeName(FuType::Crb), "CRB");
    EXPECT_STREQ(fuTypeName(FuType::KshGen), "KSHGen");
    EXPECT_STREQ(fuTypeName(FuType::Automorphism), "Aut");
}

TEST(Program, SeededHalfMarksKshGenHints)
{
    Program p;
    const auto k = p.addValue(ValueKind::KeySwitchHint, 1000, "ksh");
    p.values[k].seededHalf = true;
    EXPECT_TRUE(p.values[k].seededHalf);
    EXPECT_EQ(p.values[k].kind, ValueKind::KeySwitchHint);
}

} // namespace
} // namespace cl
