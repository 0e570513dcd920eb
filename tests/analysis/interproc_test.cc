// Unit tests for the interprocedural analysis layer on hand-written AbsIR:
// the call graph (SCCs, reachability, unknown callees), the bottom-up callee
// summaries, and SCCP branch folding (literal and summary-driven).
//
// The engine-scale soundness gates live next door in
// prune_differential_test.cc; here every property is checked against a module
// small enough to verify the expected answer by eye.
#include <gtest/gtest.h>

#include "src/analysis/callgraph.h"
#include "src/analysis/sccp.h"
#include "src/analysis/summary.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/validate.h"

namespace dnsv {
namespace {

class InterprocTest : public ::testing::Test {
 protected:
  InterprocTest() : module_(&types_) {
    types_.DefineStruct("Node", {{"val", types_.IntType()},
                                 {"next", types_.PtrTo(types_.StructType("Node"))}});
    node_ty_ = types_.StructType("Node");
    node_ptr_ty_ = types_.PtrTo(node_ty_);
  }

  // leaf() int { return 7 } — pure, panic-free, constant return.
  Function* BuildLeaf() {
    Function* fn = module_.AddFunction("leaf", {}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.Int(7));
    return fn;
  }

  // mid() int { return leaf() }
  Function* BuildMid() {
    Function* fn = module_.AddFunction("mid", {}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.Call("leaf", {}, types_.IntType()));
    return fn;
  }

  // main() int { listEq(...); return mid() } — the intrinsic must stay a
  // leaf flag, not a graph node.
  Function* BuildMain() {
    Function* fn = module_.AddFunction("main", {}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    Operand xs = b.ListNew(types_.IntType());
    Operand ys = b.ListNew(types_.IntType());
    b.Call("listEq", {xs, ys}, types_.BoolType());
    b.Ret(b.Call("mid", {}, types_.IntType()));
    return fn;
  }

  // selfrec(n int) int { return selfrec(n) } — a non-trivial SCC; the
  // summary layer must stay pessimistic on it.
  Function* BuildSelfRec() {
    Function* fn =
        module_.AddFunction("selfrec", {{"n", types_.IntType()}}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.Call("selfrec", {b.Param(0)}, types_.IntType()));
    return fn;
  }

  // storeParam(p *int) { *p = 1 } — writes caller memory, so impure.
  Function* BuildStoreParam() {
    Function* fn = module_.AddFunction(
        "storeParam", {{"p", types_.PtrTo(types_.IntType())}}, types_.VoidType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Store(b.Param(0), b.Int(1));
    b.RetVoid();
    return fn;
  }

  // panicky(n int) int { if n < 0 { panic } return n }
  Function* BuildPanicky() {
    Function* fn =
        module_.AddFunction("panicky", {{"n", types_.IntType()}}, types_.IntType());
    IrBuilder b(&module_, fn);
    BlockId entry = b.CreateBlock("entry");
    BlockId ok = b.CreateBlock("ok");
    b.SetInsertPoint(entry);
    Operand neg = b.BinaryOp(BinOp::kLt, b.Param(0), b.Int(0), types_.BoolType());
    b.Br(neg, b.GetPanicBlock("negative"), ok);
    b.SetInsertPoint(ok);
    b.Ret(b.Param(0));
    return fn;
  }

  // makeNode() *Node { return new(Node) } — non-nil return.
  Function* BuildMakeNode() {
    Function* fn = module_.AddFunction("makeNode", {}, node_ptr_ty_);
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.NewObject(node_ty_));
    return fn;
  }

  TypeTable types_;
  Module module_;
  Type node_ty_, node_ptr_ty_;
};

// --- call graph ---

TEST_F(InterprocTest, CallGraphEdgesAndIntrinsics) {
  BuildLeaf();
  BuildMid();
  Function* main_fn = BuildMain();
  ASSERT_TRUE(ValidateFunction(module_, *main_fn).ok());

  CallGraph graph = CallGraph::Build(module_);
  ASSERT_EQ(graph.size(), 3u);
  int leaf = graph.NodeOf("leaf");
  int mid = graph.NodeOf("mid");
  int main_node = graph.NodeOf("main");
  ASSERT_GE(leaf, 0);
  ASSERT_GE(mid, 0);
  ASSERT_GE(main_node, 0);
  // The intrinsic is not a node and not an unknown callee.
  EXPECT_EQ(graph.NodeOf("listEq"), -1);
  EXPECT_FALSE(graph.HasUnknownCallee(main_node));

  EXPECT_EQ(graph.Callees(main_node), std::set<int>{mid});
  EXPECT_EQ(graph.Callees(mid), std::set<int>{leaf});
  EXPECT_EQ(graph.Callers(leaf), std::set<int>{mid});
  EXPECT_TRUE(graph.Callees(leaf).empty());
}

TEST_F(InterprocTest, CallGraphSccOrderIsBottomUp) {
  BuildLeaf();
  BuildMid();
  Function* main_fn = BuildMain();
  Function* rec = BuildSelfRec();
  (void)main_fn;
  (void)rec;

  CallGraph graph = CallGraph::Build(module_);
  int leaf = graph.NodeOf("leaf");
  int mid = graph.NodeOf("mid");
  int main_node = graph.NodeOf("main");
  int selfrec = graph.NodeOf("selfrec");
  // Callee component ids never exceed caller component ids.
  EXPECT_LE(graph.SccOf(leaf), graph.SccOf(mid));
  EXPECT_LE(graph.SccOf(mid), graph.SccOf(main_node));
  // A self-call makes the component non-trivial; straight-line chains stay
  // trivial.
  EXPECT_FALSE(graph.SccIsTrivial(graph.SccOf(selfrec)));
  EXPECT_TRUE(graph.SccIsTrivial(graph.SccOf(leaf)));
  // Every node appears in exactly one bottom-up component.
  size_t members = 0;
  for (const std::vector<int>& scc : graph.SccsBottomUp()) members += scc.size();
  EXPECT_EQ(members, graph.size());
}

TEST_F(InterprocTest, CallGraphReachabilityAndUnknownCallees) {
  BuildLeaf();
  BuildMid();
  BuildMain();
  Function* ext = module_.AddFunction("externCaller", {}, types_.IntType());
  {
    IrBuilder b(&module_, ext);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.Call("mystery", {}, types_.IntType()));
  }

  CallGraph graph = CallGraph::Build(module_);
  EXPECT_TRUE(graph.HasUnknownCallee(graph.NodeOf("externCaller")));
  EXPECT_FALSE(graph.HasUnknownCallee(graph.NodeOf("mid")));

  std::set<int> reach = graph.ReachableFrom({"main"});
  std::set<int> want = {graph.NodeOf("main"), graph.NodeOf("mid"), graph.NodeOf("leaf")};
  EXPECT_EQ(reach, want);
  // Unknown root names are ignored rather than fatal.
  EXPECT_TRUE(graph.ReachableFrom({"noSuchFn"}).empty());
}

// --- summaries ---

TEST_F(InterprocTest, SummariesClassifyPurityPanicAndConstants) {
  BuildLeaf();
  BuildMid();
  BuildMain();
  BuildStoreParam();
  BuildPanicky();
  BuildSelfRec();

  CallGraph graph = CallGraph::Build(module_);
  AnalysisStats stats;
  InterprocContext ctx = ComputeInterprocContext(module_, graph, {"main"}, &stats);

  const CalleeSummary* leaf = ctx.SummaryFor("leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_TRUE(leaf->analyzed);
  EXPECT_TRUE(leaf->pure);
  EXPECT_TRUE(leaf->heap_independent);
  EXPECT_FALSE(leaf->may_panic);
  ASSERT_TRUE(leaf->return_range.IsConst());
  EXPECT_EQ(leaf->return_range.lo, 7);

  // The constant flows through the call: mid() inherits leaf's return fact.
  const CalleeSummary* mid = ctx.SummaryFor("mid");
  ASSERT_NE(mid, nullptr);
  EXPECT_TRUE(mid->analyzed);
  ASSERT_TRUE(mid->return_range.IsConst());
  EXPECT_EQ(mid->return_range.lo, 7);
  EXPECT_FALSE(mid->may_panic);

  const CalleeSummary* store_param = ctx.SummaryFor("storeParam");
  ASSERT_NE(store_param, nullptr);
  EXPECT_FALSE(store_param->pure) << "writes through a caller pointer";

  const CalleeSummary* panicky = ctx.SummaryFor("panicky");
  ASSERT_NE(panicky, nullptr);
  EXPECT_TRUE(panicky->may_panic);

  // Recursive SCCs get the pessimistic default.
  const CalleeSummary* selfrec = ctx.SummaryFor("selfrec");
  ASSERT_NE(selfrec, nullptr);
  EXPECT_FALSE(selfrec->analyzed);
  EXPECT_TRUE(selfrec->may_panic);

  EXPECT_EQ(stats.functions, 6);
  EXPECT_GE(stats.pure_functions, 3);  // leaf, mid, main at least
  EXPECT_GE(stats.const_returns, 2);   // leaf and mid
}

TEST_F(InterprocTest, SummaryReturnsNonNullForFreshAllocation) {
  BuildMakeNode();
  CallGraph graph = CallGraph::Build(module_);
  InterprocContext ctx = ComputeInterprocContext(module_, graph, {}, nullptr);
  const CalleeSummary* make_node = ctx.SummaryFor("makeNode");
  ASSERT_NE(make_node, nullptr);
  EXPECT_TRUE(make_node->analyzed);
  EXPECT_TRUE(make_node->returns_nonnull);
}

// --- SCCP ---

TEST_F(InterprocTest, SccpFoldsLiteralBranch) {
  Function* fn = module_.AddFunction("litbr", {}, types_.IntType());
  IrBuilder b(&module_, fn);
  BlockId entry = b.CreateBlock("entry");
  BlockId then_bb = b.CreateBlock("then");
  BlockId else_bb = b.CreateBlock("else");
  b.SetInsertPoint(entry);
  Operand c = b.BinaryOp(BinOp::kLt, b.Int(1), b.Int(2), types_.BoolType());
  b.Br(c, then_bb, else_bb);
  b.SetInsertPoint(then_bb);
  b.Ret(b.Int(1));
  b.SetInsertPoint(else_bb);
  b.Ret(b.Int(0));

  SccpResult result = RunSccp(fn, nullptr);
  EXPECT_TRUE(result.changed);
  EXPECT_EQ(result.branches_folded, 1);
  std::string after = PrintFunction(module_, *fn);
  EXPECT_NE(after.find("jmp"), std::string::npos) << after;
}

TEST_F(InterprocTest, SccpFoldsGuardThroughCalleeSummaryOnly) {
  BuildLeaf();
  auto build_guard = [&](const std::string& name) {
    Function* fn = module_.AddFunction(name, {}, types_.IntType());
    IrBuilder b(&module_, fn);
    BlockId entry = b.CreateBlock("entry");
    BlockId then_bb = b.CreateBlock("then");
    BlockId else_bb = b.CreateBlock("else");
    b.SetInsertPoint(entry);
    Operand x = b.Call("leaf", {}, types_.IntType());
    Operand c = b.BinaryOp(BinOp::kEq, x, b.Int(7), types_.BoolType());
    b.Br(c, then_bb, else_bb);
    b.SetInsertPoint(then_bb);
    b.Ret(b.Int(1));
    b.SetInsertPoint(else_bb);
    b.Ret(b.Int(0));
    return fn;
  };
  Function* without_ctx = build_guard("guardA");
  Function* with_ctx = build_guard("guardB");

  // Without summaries the call result is overdefined: nothing folds.
  SccpResult bare = RunSccp(without_ctx, nullptr);
  EXPECT_EQ(bare.branches_folded, 0);
  EXPECT_FALSE(bare.changed);

  CallGraph graph = CallGraph::Build(module_);
  InterprocContext ctx = ComputeInterprocContext(module_, graph, {}, nullptr);
  SccpResult summarized = RunSccp(with_ctx, &ctx);
  EXPECT_EQ(summarized.branches_folded, 1);
  std::string after = PrintFunction(module_, *with_ctx);
  EXPECT_NE(after.find("jmp"), std::string::npos) << after;
}

}  // namespace
}  // namespace dnsv
