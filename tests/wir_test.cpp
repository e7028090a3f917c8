//===- tests/wir_test.cpp - Work-IR builder/printer/interpreter tests -----==//

#include "support/OpCounters.h"
#include "wir/Build.h"
#include "wir/Interp.h"

#include <gtest/gtest.h>

using namespace slin;
using namespace slin::wir;
using namespace slin::wir::build;

namespace {

/// Builds the FIR work function of Figure 1-3 over a const field "h".
WorkFunction makeFIRWork(int N) {
  return WorkFunction(
      N, 1, 1,
      stmts(assign("sum", cst(0)),
            loop("i", cst(0), cst(N),
                 stmts(assign("sum", add(vr("sum"), mul(fldAt("h", vr("i")),
                                                        peek(vr("i"))))))),
            push(vr("sum")), popStmt()));
}

TEST(WorkIR, CloneIsDeepAndEqualText) {
  WorkFunction W = makeFIRWork(4);
  WorkFunction C = W.clone();
  EXPECT_EQ(print(W), print(C));
  // Mutating the clone must not affect the original.
  C.Body.clear();
  EXPECT_NE(print(W), print(C));
}

TEST(WorkIR, PrinterGolden) {
  WorkFunction W(3, 1, 2,
                 stmts(push(add(mul(cst(3), peek(2)), mul(cst(5), peek(1)))),
                       push(add(add(mul(cst(2), peek(2)), peek(0)), cst(6))),
                       popStmt()));
  EXPECT_EQ(print(W),
            "work peek 3 pop 1 push 2 {\n"
            "  push(((3 * peek(2)) + (5 * peek(1))));\n"
            "  push((((2 * peek(2)) + peek(0)) + 6));\n"
            "  pop();\n"
            "}\n");
}

TEST(WorkIR, InterpretFIR) {
  std::vector<FieldDef> Fields = {FieldDef::constArray("h", {1, 2, 3, 4})};
  WorkFunction W = makeFIRWork(4);
  FieldStore State(Fields);
  VectorTape T({10, 20, 30, 40, 50});
  interpret(W, Fields, State, T);
  // sum = 1*10 + 2*20 + 3*30 + 4*40 = 300; one item popped.
  ASSERT_EQ(T.Output.size(), 1u);
  EXPECT_DOUBLE_EQ(T.Output[0], 300);
  EXPECT_EQ(T.consumed(), 1u);
  interpret(W, Fields, State, T);
  ASSERT_EQ(T.Output.size(), 2u);
  EXPECT_DOUBLE_EQ(T.Output[1], 1 * 20 + 2 * 30 + 3 * 40 + 4 * 50);
}

TEST(WorkIR, InterpretCountsOps) {
  std::vector<FieldDef> Fields = {FieldDef::constArray("h", {1, 2, 3, 4})};
  WorkFunction W = makeFIRWork(4);
  FieldStore State(Fields);
  VectorTape T({1, 1, 1, 1});
  ops::CountingScope Scope;
  ops::reset();
  interpret(W, Fields, State, T);
  EXPECT_EQ(ops::counts().Muls, 4u);
  EXPECT_EQ(ops::counts().Adds, 4u);
}

TEST(WorkIR, MutableFieldPersistsAcrossFirings) {
  // FloatSource: push(x++) with mutable scalar field x.
  std::vector<FieldDef> Fields = {FieldDef::mutableScalar("x", 0)};
  WorkFunction W(0, 0, 1,
                 stmts(push(fld("x")), fldAssign("x", add(fld("x"), cst(1)))));
  FieldStore State(Fields);
  VectorTape T({});
  for (int I = 0; I != 5; ++I)
    interpret(W, Fields, State, T);
  EXPECT_EQ(T.Output, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(WorkIR, BranchesAndComparisons) {
  // ThresholdDetector-like filter: push(1) if input > 0.5 else push(0).
  WorkFunction W(1, 1, 1,
                 stmts(assign("t", pop()),
                       ifStmt(gt(vr("t"), cst(0.5)), stmts(push(cst(1))),
                              stmts(push(cst(0))))));
  std::vector<FieldDef> NoFields;
  FieldStore State(NoFields);
  VectorTape T({0.2, 0.9, 0.5, 0.7});
  for (int I = 0; I != 4; ++I)
    interpret(W, NoFields, State, T);
  EXPECT_EQ(T.Output, (std::vector<double>{0, 1, 0, 1}));
}

TEST(WorkIR, LocalArrays) {
  // Reverses a window of 3 via a local array.
  WorkFunction W(3, 3, 3,
                 stmts(localArray("buf", 3),
                       loop("i", cst(0), cst(3),
                            stmts(arrAssign("buf", vr("i"), pop()))),
                       loop("i", cst(0), cst(3),
                            stmts(push(arrAt("buf", sub(cst(2), vr("i"))))))));
  std::vector<FieldDef> NoFields;
  FieldStore State(NoFields);
  VectorTape T({1, 2, 3});
  interpret(W, NoFields, State, T);
  EXPECT_EQ(T.Output, (std::vector<double>{3, 2, 1}));
}

TEST(WorkIR, IntrinsicsAndModulo) {
  WorkFunction W(0, 0, 3,
                 stmts(push(sqrtE(cst(9))), push(mod(cst(7), cst(3))),
                       push(absE(neg(cst(2))))));
  std::vector<FieldDef> NoFields;
  FieldStore State(NoFields);
  VectorTape T({});
  ops::CountingScope Scope;
  ops::reset();
  interpret(W, NoFields, State, T);
  EXPECT_EQ(T.Output, (std::vector<double>{3, 1, 2}));
  EXPECT_EQ(ops::counts().Trans, 2u); // sqrt, abs
  EXPECT_EQ(ops::counts().Divs, 1u);  // fmod counted with divides
}

TEST(WorkIR, PrintRoutesToTape) {
  WorkFunction W(1, 1, 0, stmts(printStmt(pop())));
  std::vector<FieldDef> NoFields;
  FieldStore State(NoFields);
  VectorTape T({42, 43});
  interpret(W, NoFields, State, T);
  interpret(W, NoFields, State, T);
  EXPECT_EQ(T.Printed, (std::vector<double>{42, 43}));
  EXPECT_TRUE(T.Output.empty());
}

TEST(WorkIRDeath, UndefinedVariableIsFatal) {
  WorkFunction W(0, 0, 1, stmts(push(vr("nope"))));
  std::vector<FieldDef> NoFields;
  FieldStore State(NoFields);
  VectorTape T({});
  EXPECT_DEATH(interpret(W, NoFields, State, T), "undefined variable");
}

TEST(WorkIRDeath, AssignToConstFieldIsFatal) {
  std::vector<FieldDef> Fields = {FieldDef::constScalar("c", 1)};
  WorkFunction W(0, 0, 0, stmts(fldAssign("c", cst(2))));
  FieldStore State(Fields);
  VectorTape T({});
  EXPECT_DEATH(interpret(W, Fields, State, T), "non-mutable field");
}

} // namespace
