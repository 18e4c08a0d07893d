// Tests for the sync-op identification pipeline (paper §4.3): the MIR
// builder, Steensgaard points-to, the two-stage analysis (incl. the Listing
// 1 / Listing 2 behaviours the paper discusses), the volatile extension, the
// _Atomic qualifier checker, and the Table 3 corpus regeneration.

#include <gtest/gtest.h>

#include <algorithm>

#include "andersen_oracle.h"
#include "mvee/analysis/andersen.h"
#include "mvee/analysis/assignment_plan.h"
#include "mvee/analysis/atomic_check.h"
#include "mvee/analysis/corpus.h"
#include "mvee/analysis/field_sensitive.h"
#include "mvee/analysis/points_to.h"
#include "mvee/analysis/sparse_bitmap.h"
#include "mvee/analysis/syncop_analysis.h"
#include "mvee/util/rng.h"

namespace mvee {
namespace {

TEST(PointsToTest, AddrOfEstablishesPointsTo) {
  MirBuilder builder("m");
  const int32_t obj = builder.Object("x");
  const int32_t reg = builder.Reg();
  builder.AddrOf(reg, obj);
  PointsToAnalysis analysis(builder.Build());
  EXPECT_EQ(analysis.PointsTo(reg), std::set<int32_t>{obj});
}

TEST(PointsToTest, CopyPropagates) {
  MirBuilder builder("m");
  const int32_t obj = builder.Object("x");
  const int32_t a = builder.Reg();
  const int32_t b = builder.Reg();
  const int32_t c = builder.Reg();
  builder.AddrOf(a, obj).Mov(b, a).Gep(c, b);
  PointsToAnalysis analysis(builder.Build());
  EXPECT_TRUE(analysis.MayAlias(a, b));
  EXPECT_TRUE(analysis.MayAlias(a, c));
  EXPECT_EQ(analysis.PointsTo(c), std::set<int32_t>{obj});
}

TEST(PointsToTest, DisjointPointersDoNotAlias) {
  MirBuilder builder("m");
  const int32_t x = builder.Object("x");
  const int32_t y = builder.Object("y");
  const int32_t p = builder.Reg();
  const int32_t q = builder.Reg();
  builder.AddrOf(p, x).AddrOf(q, y);
  PointsToAnalysis analysis(builder.Build());
  EXPECT_FALSE(analysis.MayAlias(p, q));
}

TEST(PointsToTest, UnificationMergesOnDoubleAssignment) {
  // Steensgaard is unification-based: p = &x; p = &y makes {x,y} one class,
  // so q = &x aliases p even through y. This is the over-approximation the
  // paper observed with DSA.
  MirBuilder builder("m");
  const int32_t x = builder.Object("x");
  const int32_t y = builder.Object("y");
  const int32_t p = builder.Reg();
  const int32_t q = builder.Reg();
  builder.AddrOf(p, x).AddrOf(p, y).AddrOf(q, y);
  PointsToAnalysis analysis(builder.Build());
  EXPECT_TRUE(analysis.MayAlias(p, q));
  EXPECT_EQ(analysis.PointsTo(p).size(), 2u);
}

TEST(PointsToTest, HeapObjectsTracked) {
  MirBuilder builder("m");
  const int32_t heap = builder.Object("h", MirStorage::kHeap);
  const int32_t p = builder.Reg();
  builder.Alloc(p, heap);
  PointsToAnalysis analysis(builder.Build());
  EXPECT_EQ(analysis.PointsTo(p), std::set<int32_t>{heap});
}

TEST(SyncOpAnalysisTest, Listing1SpinlockFindsUnlockStore) {
  // The paper's worked example: the LOCK CMPXCHG in spinlock_lock is a
  // stage-1 sync op; the plain store in spinlock_unlock aliases the same
  // variable and must be marked in stage 2.
  const SyncOpReport report = IdentifySyncOps(BuildListing1Module());
  EXPECT_EQ(report.type_i.size(), 1u);
  EXPECT_EQ(report.type_ii.size(), 0u);
  ASSERT_EQ(report.type_iii.size(), 1u);
  EXPECT_EQ(report.type_iii[0].function, "spinlock_unlock");
  EXPECT_EQ(report.type_iii[0].source_line, "listing1.c:9");
  // The bystander store stays unmarked.
  EXPECT_EQ(report.unmarked_memops, 1u);
}

TEST(SyncOpAnalysisTest, Listing2CondvarMissedWithoutVolatile) {
  // The documented limitation (§4.3): load/store-only primitives are
  // invisible to the base analysis.
  const SyncOpReport report = IdentifySyncOps(BuildListing2Module());
  EXPECT_EQ(report.TotalSyncOps(), 0u);
  EXPECT_EQ(report.unmarked_memops, 2u);
}

TEST(SyncOpAnalysisTest, Listing2CondvarFoundWithVolatileExtension) {
  SyncOpAnalysisOptions options;
  options.treat_volatile_as_sync = true;
  const SyncOpReport report = IdentifySyncOps(BuildListing2Module(), options);
  EXPECT_EQ(report.type_iii.size(), 2u);  // The flag's store and load.
  EXPECT_EQ(report.unmarked_memops, 0u);
}

TEST(SyncOpAnalysisTest, NoisePrecision) {
  // A module with only private memory traffic: nothing may be marked.
  MirBuilder builder("quiet");
  for (int i = 0; i < 50; ++i) {
    const int32_t obj = builder.Object("v" + std::to_string(i), MirStorage::kStack);
    const int32_t reg = builder.Reg();
    builder.AddrOf(reg, obj).Load(reg).Store(reg);
  }
  const SyncOpReport report = IdentifySyncOps(builder.Build());
  EXPECT_EQ(report.TotalSyncOps(), 0u);
  EXPECT_EQ(report.unmarked_memops, 100u);
}

class Table3Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Table3Test, CorpusRowMatchesPaperCounts) {
  const auto specs = Table3Specs();
  const CorpusSpec& spec = specs[GetParam()];
  const SyncOpReport report = IdentifySyncOps(BuildSyntheticModule(spec));
  EXPECT_EQ(report.type_i.size(), spec.type_i) << spec.module_name;
  EXPECT_EQ(report.type_ii.size(), spec.type_ii) << spec.module_name;
  EXPECT_EQ(report.type_iii.size(), spec.type_iii) << spec.module_name;
  // Precision: every noise memop stays unmarked.
  EXPECT_EQ(report.unmarked_memops, spec.noise_memops) << spec.module_name;
}

INSTANTIATE_TEST_SUITE_P(AllRows, Table3Test, ::testing::Range<size_t>(0, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           std::string name = Table3Specs()[info.param].module_name;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(Table3FormatTest, RendersAllRows) {
  std::vector<SyncOpReport> reports;
  for (const auto& module : BuildTable3Corpus()) {
    reports.push_back(IdentifySyncOps(module));
  }
  const std::string table = FormatTable3(reports);
  EXPECT_NE(table.find("libc-2.19.so"), std::string::npos);
  EXPECT_NE(table.find("319"), std::string::npos);  // libc type (i) count.
  EXPECT_NE(table.find("409"), std::string::npos);  // libc type (ii) count.
}

TEST(AtomicCheckTest, CleanModuleHasNoDiagnostics) {
  MirBuilder builder("clean");
  const int32_t obj = builder.Object("lock", MirStorage::kGlobal, false,
                                     /*atomic_qualified=*/true);
  const int32_t p = builder.Reg();
  builder.AddrOf(p, obj).LockRmw(p);
  const AtomicCheckResult result = CheckAtomicQualifiers(builder.Build(), {p});
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(AtomicCheckTest, DiscardingQualifierIsError) {
  MirBuilder builder("discard");
  const int32_t obj = builder.Object("lock", MirStorage::kGlobal, false, true);
  const int32_t p = builder.Reg();
  const int32_t q = builder.Reg();
  builder.AddrOf(p, obj).Mov(q, p, "cast.c:7");
  const AtomicCheckResult result = CheckAtomicQualifiers(builder.Build(), {p});
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].kind, AtomicDiagnostic::Kind::kErrorCastFromAtomic);
  EXPECT_EQ(result.diagnostics[0].source_line, "cast.c:7");
  EXPECT_TRUE(result.HasErrors());
}

TEST(AtomicCheckTest, AddingQualifierIsWarning) {
  MirBuilder builder("add");
  const int32_t obj = builder.Object("plain");
  const int32_t p = builder.Reg();
  const int32_t q = builder.Reg();
  builder.AddrOf(p, obj).Mov(q, p, "cast.c:9");
  const AtomicCheckResult result = CheckAtomicQualifiers(builder.Build(), {q});
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].kind, AtomicDiagnostic::Kind::kWarningCastToAtomic);
  EXPECT_FALSE(result.HasErrors());
}

TEST(AtomicCheckTest, AsmUseIsHardError) {
  const MirModule module = BuildAsmViolationModule();
  PropagationResult result = PropagateQualifiers(module, {0});
  ASSERT_EQ(result.hard_errors.size(), 1u);
  EXPECT_EQ(result.hard_errors[0].kind, AtomicDiagnostic::Kind::kErrorAtomicInAsm);
}

TEST(AtomicCheckTest, PropagationReachesFixpoint) {
  // A chain lock -> p0 -> p1 -> p2 plus an upstream source feeding p1: the
  // fixpoint must qualify every register in the def-use web.
  MirBuilder builder("chain");
  const int32_t lock = builder.Object("lock");
  const int32_t p0 = builder.Reg();
  const int32_t p1 = builder.Reg();
  const int32_t p2 = builder.Reg();
  const int32_t upstream = builder.Reg();
  builder.AddrOf(p0, lock).Mov(p1, p0).Mov(p2, p1).Mov(p1, upstream);
  const PropagationResult result = PropagateQualifiers(builder.Build(), {lock});
  EXPECT_EQ(result.qualified_regs.size(), 4u);  // p0, p1, p2, upstream.
  EXPECT_GE(result.iterations, 2);              // Needed more than one "compile".
  EXPECT_TRUE(result.hard_errors.empty());
}

TEST(AtomicCheckTest, UnrelatedPointersStayUnqualified) {
  MirBuilder builder("unrelated");
  const int32_t lock = builder.Object("lock");
  const int32_t other = builder.Object("other");
  const int32_t p = builder.Reg();
  const int32_t q = builder.Reg();
  builder.AddrOf(p, lock).AddrOf(q, other);
  const PropagationResult result = PropagateQualifiers(builder.Build(), {lock});
  EXPECT_EQ(result.qualified_regs.count(p), 1u);
  EXPECT_EQ(result.qualified_regs.count(q), 0u);
}

TEST(MirTest, BuilderProducesWellFormedModule) {
  MirBuilder builder("wf");
  const int32_t obj = builder.Object("x");
  const int32_t reg = builder.Reg();
  builder.Function("f");
  builder.AddrOf(reg, obj).LockRmw(reg).Compute();
  const MirModule module = builder.Build();
  EXPECT_EQ(module.name, "wf");
  EXPECT_EQ(module.functions.size(), 1u);
  EXPECT_EQ(module.InstructionCount(), 3u);
  EXPECT_EQ(module.register_count, 1);
}

// --- Field-sensitive analysis (§4.3.1's missing piece) ---

TEST(FieldSensitiveTest, DistinctFieldsDoNotAlias) {
  MirBuilder builder("m");
  const int32_t node = builder.Object("node", MirStorage::kHeap);
  const int32_t base = builder.Reg();
  const int32_t refcount = builder.Reg();
  const int32_t payload = builder.Reg();
  builder.Function("f");
  builder.Alloc(base, node)
      .GepField(refcount, base, 0)
      .GepField(payload, base, 1);
  FieldSensitiveAnalysis analysis(builder.Build());
  EXPECT_FALSE(analysis.MayAlias(refcount, payload));
  EXPECT_TRUE(analysis.MayAlias(base, refcount)) << "base covers field 0";
}

TEST(FieldSensitiveTest, OpaqueArithmeticSmearToAnyField) {
  MirBuilder builder("m");
  const int32_t node = builder.Object("node", MirStorage::kHeap);
  const int32_t base = builder.Reg();
  const int32_t anywhere = builder.Reg();
  const int32_t payload = builder.Reg();
  builder.Function("f");
  builder.Alloc(base, node)
      .Gep(anywhere, base)  // Opaque pointer arithmetic: field unknown.
      .GepField(payload, base, 3);
  FieldSensitiveAnalysis analysis(builder.Build());
  // The SVF conservatism the paper observed: arithmetic forfeits precision.
  EXPECT_TRUE(analysis.MayAlias(anywhere, payload));
}

TEST(FieldSensitiveTest, LocsMayAliasSemantics) {
  EXPECT_TRUE(LocsMayAlias({1, 0}, {1, 0}));
  EXPECT_FALSE(LocsMayAlias({1, 0}, {1, 1}));
  EXPECT_FALSE(LocsMayAlias({1, 0}, {2, 0}));
  EXPECT_TRUE(LocsMayAlias({1, FieldLoc::kAnyField}, {1, 7}));
  EXPECT_TRUE(LocsMayAlias({1, 7}, {1, FieldLoc::kAnyField}));
}

TEST(FieldSensitiveTest, RefcountPatternKeepsPayloadUnmarked) {
  const RefcountHeapCorpus corpus = BuildRefcountHeapModule();

  // Field-insensitive (Andersen / SVF-as-queryable, §4.3.1): every payload
  // access aliases the locked object => spurious type (iii) marks.
  const SyncOpReport flat = IdentifySyncOpsAndersen(corpus.module);
  EXPECT_EQ(flat.type_iii.size(), corpus.real_type_iii + corpus.payload_memops)
      << "field-insensitive analysis must over-mark the heap payload";

  // Field-sensitive: only the genuine refcount reloads are marked.
  const SyncOpReport sensitive = IdentifySyncOpsFieldSensitive(corpus.module);
  EXPECT_EQ(sensitive.type_iii.size(), corpus.real_type_iii);
  EXPECT_EQ(sensitive.unmarked_memops, corpus.payload_memops);
  EXPECT_EQ(sensitive.type_i.size(), flat.type_i.size()) << "stage 1 is unchanged";
}

TEST(FieldSensitiveTest, AgreesWithAndersenOnFieldFreeModules) {
  // On Listing 1 (no aggregates) field sensitivity must change nothing.
  const MirModule module = BuildListing1Module();
  const SyncOpReport flat = IdentifySyncOpsAndersen(module);
  const SyncOpReport sensitive = IdentifySyncOpsFieldSensitive(module);
  EXPECT_EQ(sensitive.type_i.size(), flat.type_i.size());
  EXPECT_EQ(sensitive.type_ii.size(), flat.type_ii.size());
  EXPECT_EQ(sensitive.type_iii.size(), flat.type_iii.size());
  EXPECT_EQ(sensitive.unmarked_memops, flat.unmarked_memops);
}

TEST(FieldSensitiveTest, VolatileExtensionCoversWholeObject) {
  const MirModule module = BuildListing2Module();
  SyncOpAnalysisOptions options;
  options.treat_volatile_as_sync = true;
  const SyncOpReport report = IdentifySyncOpsFieldSensitive(module, options);
  // Both the store and the load on the volatile flag are found.
  EXPECT_EQ(report.type_iii.size(), 2u);
}

// --- §4.3.1 checker improvements ---

TEST(AtomicCheckImprovementsTest, AutoVolatileQualifiesListing2) {
  const MirModule module = BuildListing2Module();
  // Without improvement 1 there is nothing to seed from: stage 1 finds no
  // atomics in Listing 2, so propagation qualifies nothing.
  const PropagationResult plain = PropagateQualifiers(module, {});
  EXPECT_TRUE(plain.qualified_objects.empty());
  EXPECT_TRUE(plain.qualified_regs.empty());

  AtomicCheckOptions options;
  options.auto_qualify_volatile = true;
  const PropagationResult improved = PropagateQualifiers(module, {}, options);
  EXPECT_EQ(improved.qualified_objects.size(), 1u) << "the volatile flag";
  EXPECT_EQ(improved.qualified_regs.size(), 2u) << "both pointers to it";
  EXPECT_TRUE(improved.hard_errors.empty());
}

TEST(AtomicCheckImprovementsTest, AnalyzableAsmIsPermitted) {
  MirBuilder builder("analyzable_asm");
  const int32_t var = builder.Object("lock", MirStorage::kGlobal);
  builder.Function("f");
  const int32_t pointer = builder.Reg();
  builder.AddrOf(pointer, var, "a.c:1");
  builder.AsmBlockAnalyzable(pointer, "a.c:2");
  const MirModule module = builder.Build();

  // Improvement 3 off: the qualified pointer in asm is a hard error.
  const PropagationResult strict = PropagateQualifiers(module, {var});
  ASSERT_EQ(strict.hard_errors.size(), 1u);
  EXPECT_EQ(strict.hard_errors[0].kind, AtomicDiagnostic::Kind::kErrorAtomicInAsm);

  // Improvement 3 on: the easy-to-analyze block is accepted.
  AtomicCheckOptions options;
  options.permit_analyzable_asm = true;
  const PropagationResult relaxed = PropagateQualifiers(module, {var}, options);
  EXPECT_TRUE(relaxed.hard_errors.empty());
}

TEST(AtomicCheckImprovementsTest, OpaqueAsmStillRejected) {
  // BuildAsmViolationModule uses a plain AsmBlock: improvement 3 must not
  // exempt it.
  const MirModule module = BuildAsmViolationModule();
  AtomicCheckOptions options;
  options.permit_analyzable_asm = true;
  const PropagationResult result = PropagateQualifiers(module, {0}, options);
  EXPECT_EQ(result.hard_errors.size(), 1u);
}

// --- Sparse bitmap (the wave solver's set representation) -------------------

TEST(SparseBitmapTest, InsertTestCount) {
  SparseBitmap bitmap;
  EXPECT_TRUE(bitmap.Empty());
  EXPECT_TRUE(bitmap.Insert(7));
  EXPECT_FALSE(bitmap.Insert(7));  // Already set.
  EXPECT_TRUE(bitmap.Insert(1000000));  // Far chunk.
  EXPECT_TRUE(bitmap.Test(7));
  EXPECT_TRUE(bitmap.Test(1000000));
  EXPECT_FALSE(bitmap.Test(8));
  EXPECT_EQ(bitmap.Count(), 2u);
}

TEST(SparseBitmapTest, ForEachAscending) {
  SparseBitmap bitmap;
  const std::vector<uint32_t> bits = {513, 2, 255, 256, 70000, 0};
  for (uint32_t bit : bits) {
    bitmap.Insert(bit);
  }
  std::vector<uint32_t> seen;
  bitmap.ForEach([&](uint32_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 2, 255, 256, 513, 70000}));
}

TEST(SparseBitmapTest, UnionWithDeltaReportsOnlyNewBits) {
  SparseBitmap a;
  SparseBitmap b;
  a.Insert(1);
  a.Insert(300);
  b.Insert(300);  // Already present in a.
  b.Insert(301);
  b.Insert(9000);
  SparseBitmap delta;
  EXPECT_TRUE(a.UnionWithDelta(b, &delta));
  std::vector<uint32_t> fresh;
  delta.ForEach([&](uint32_t bit) { fresh.push_back(bit); });
  EXPECT_EQ(fresh, (std::vector<uint32_t>{301, 9000}));
  // Second union is a no-op.
  SparseBitmap empty_delta;
  EXPECT_FALSE(a.UnionWithDelta(b, &empty_delta));
  EXPECT_TRUE(empty_delta.Empty());
  EXPECT_TRUE(a.Intersects(b));
}

// --- Interprocedural MIR: direct calls, returns, indirect-call fixpoint -----

TEST(InterprocTest, DirectCallBindsArgsAndReturn) {
  // callee(p) { return p; }  caller: r = callee(&x)  =>  pts(r) = {x}.
  MirBuilder builder("direct");
  const int32_t callee = builder.Function("callee");
  const int32_t param = builder.Param();
  builder.Return(param);
  builder.Function("caller");
  const int32_t x = builder.Object("x");
  const int32_t arg = builder.Reg();
  const int32_t ret = builder.Reg();
  builder.AddrOf(arg, x);
  builder.Call(ret, builder.FunctionObject(callee), {arg});
  const MirModule module = builder.Build();

  const AndersenAnalysis andersen(module);
  EXPECT_EQ(andersen.PointsTo(param), std::set<int32_t>{x});
  EXPECT_EQ(andersen.PointsTo(ret), std::set<int32_t>{x});
  const PointsToAnalysis steensgaard(module);
  EXPECT_EQ(steensgaard.PointsTo(param), std::set<int32_t>{x});
  EXPECT_EQ(steensgaard.PointsTo(ret), std::set<int32_t>{x});
}

TEST(InterprocTest, IndirectCallResolvedThroughPointsTo) {
  // fp receives &f and &g; the indirect call must bind BOTH callees' params.
  MirBuilder builder("indirect");
  const int32_t f = builder.Function("f");
  const int32_t f_param = builder.Param();
  const int32_t g = builder.Function("g");
  const int32_t g_param = builder.Param();
  builder.Function("caller");
  const int32_t x = builder.Object("x");
  const int32_t arg = builder.Reg();
  const int32_t fptr = builder.Reg();
  builder.AddrOf(arg, x);
  builder.AddrOf(fptr, builder.FunctionObject(f));
  builder.AddrOf(fptr, builder.FunctionObject(g));
  builder.CallIndirect(-1, fptr, {arg});
  const MirModule module = builder.Build();

  const AndersenAnalysis andersen(module);
  EXPECT_EQ(andersen.PointsTo(f_param), std::set<int32_t>{x});
  EXPECT_EQ(andersen.PointsTo(g_param), std::set<int32_t>{x});
  const PointsToAnalysis steensgaard(module);
  EXPECT_TRUE(steensgaard.PointsTo(f_param).count(x));
  EXPECT_TRUE(steensgaard.PointsTo(g_param).count(x));
}

TEST(InterprocTest, CallGraphPointsToFixpoint) {
  // The mutually-recursive case: the fptr's second target only becomes
  // visible through a copy chain fed by ANOTHER function's param — resolving
  // the first callee is what makes the second resolvable.
  MirBuilder builder("fixpoint");
  const int32_t leak = builder.Function("leak_fp");
  const int32_t leak_param = builder.Param();  // Receives &g via the call below.
  const int32_t leaked = builder.Reg();
  builder.Mov(leaked, leak_param);
  builder.Return(leaked);
  const int32_t g = builder.Function("g");
  const int32_t g_param = builder.Param();
  (void)g_param;
  builder.Function("caller");
  const int32_t x = builder.Object("x");
  const int32_t g_addr = builder.Reg();
  builder.AddrOf(g_addr, builder.FunctionObject(g));
  const int32_t fptr = builder.Reg();
  builder.Call(fptr, builder.FunctionObject(leak), {g_addr});
  const int32_t arg = builder.Reg();
  builder.AddrOf(arg, x);
  builder.CallIndirect(-1, fptr, {arg});  // Callee (g) known only post-solve.
  const MirModule module = builder.Build();

  const AndersenAnalysis andersen(module);
  EXPECT_EQ(andersen.PointsTo(g_param), std::set<int32_t>{x});
  const PointsToAnalysis steensgaard(module);
  EXPECT_TRUE(steensgaard.PointsTo(g_param).count(x));
}

TEST(InterprocTest, SyncOpsFlowAcrossCalls) {
  // A lock address passed into a callee: the callee's plain store must be
  // marked type (iii) — invisible to an intraprocedural stage 2.
  MirBuilder builder("cross");
  const int32_t unlock = builder.Function("unlock");
  const int32_t unlock_param = builder.Param();
  builder.Store(unlock_param, "cross.c:9");
  builder.Function("lock");
  const int32_t lock_var = builder.Object("lock_var", MirStorage::kGlobal);
  const int32_t pointer = builder.Reg();
  builder.AddrOf(pointer, lock_var);
  builder.LockRmw(pointer, "cross.c:4");
  builder.Call(-1, builder.FunctionObject(unlock), {pointer});
  const MirModule module = builder.Build();

  const SyncOpReport steensgaard = IdentifySyncOps(module);
  const SyncOpReport andersen = IdentifySyncOpsAndersen(module);
  for (const SyncOpReport* report : {&steensgaard, &andersen}) {
    ASSERT_EQ(report->type_iii.size(), 1u);
    EXPECT_EQ(report->type_iii[0].function, "unlock");
    EXPECT_EQ(report->type_iii[0].source_line, "cross.c:9");
  }
}

TEST(InterprocTest, EscapingLocalLosesThreadLocalVerdict) {
  // A stack object RMW'd in its creating function would be kThreadLocal /
  // kNull; once its address escapes into a callee that stores through it,
  // the interprocedural analysis sees two touching functions and the plan
  // must route it to a recording agent.
  MirBuilder builder("escape");
  const int32_t consumer = builder.Function("consumer");
  const int32_t consumer_param = builder.Param();
  builder.Store(consumer_param, "escape.c:20");
  builder.Function("producer");
  const int32_t local = builder.Object("local_latch", MirStorage::kStack);
  const int32_t local_ptr = builder.Reg();
  builder.AddrOf(local_ptr, local);
  builder.LockRmw(local_ptr, "escape.c:10");
  builder.Call(-1, builder.FunctionObject(consumer), {local_ptr});
  const MirModule module = builder.Build();

  const SyncOpReport report = IdentifySyncOpsAndersen(module);
  ASSERT_TRUE(report.sync_objects.count(local));
  const AssignmentPlanReport plan = DeriveAssignmentPlan(module, report);
  ASSERT_EQ(plan.variables.size(), 1u);
  EXPECT_EQ(plan.variables[0].object, local);
  EXPECT_NE(plan.variables[0].verdict, AssignmentVerdict::kThreadLocal);
  EXPECT_NE(plan.variables[0].kind, AgentKind::kNull);
  EXPECT_EQ(plan.variables[0].touching_functions, 2u);
}

TEST(InterprocTest, QualifierPropagatesThroughCalls) {
  // _Atomic propagation must treat arg/param bindings as def-use edges: the
  // callee's param (and its copies) get qualified from the caller's seed.
  MirBuilder builder("qualcall");
  const int32_t callee = builder.Function("callee");
  const int32_t param = builder.Param();
  const int32_t inner = builder.Reg();
  builder.Mov(inner, param);
  builder.Function("caller");
  const int32_t var = builder.Object("flag", MirStorage::kGlobal);
  const int32_t pointer = builder.Reg();
  builder.AddrOf(pointer, var);
  builder.Call(-1, builder.FunctionObject(callee), {pointer});
  const PropagationResult result = PropagateQualifiers(builder.Build(), {var});
  EXPECT_TRUE(result.qualified_regs.count(param));
  EXPECT_TRUE(result.qualified_regs.count(inner));
}

// --- Interprocedural corpus ------------------------------------------------

TEST(InterprocCorpusTest, DeterministicAndScales) {
  const InterprocSpec spec;  // Defaults: small.
  const InterprocCorpus a = BuildInterprocModule(spec);
  const InterprocCorpus b = BuildInterprocModule(spec);
  EXPECT_EQ(a.module.InstructionCount(), b.module.InstructionCount());
  EXPECT_EQ(a.module.register_count, b.module.register_count);
  EXPECT_EQ(a.noise_memops, b.noise_memops);
  EXPECT_FALSE(a.escaping_objects.empty());

  const auto scaled = ScaledInterprocSpecs();
  ASSERT_FALSE(scaled.empty());
  // The acceptance row: the largest spec emits a 100k+-instruction module.
  const InterprocCorpus largest = BuildInterprocModule(scaled.back());
  EXPECT_GE(largest.module.InstructionCount(), 100000u);
}

TEST(InterprocCorpusTest, EscapingLocalsRoutedToRecordingAgents) {
  InterprocSpec spec;
  spec.workers = 6;
  spec.escaping_locals = 3;
  const InterprocCorpus corpus = BuildInterprocModule(spec);
  const SyncOpReport report = IdentifySyncOpsAndersen(corpus.module);
  const AssignmentPlanReport plan = DeriveAssignmentPlan(corpus.module, report);
  size_t escaping_seen = 0;
  for (const auto& variable : plan.variables) {
    for (int32_t escaping : corpus.escaping_objects) {
      if (variable.object != escaping) {
        continue;
      }
      ++escaping_seen;
      EXPECT_NE(variable.verdict, AssignmentVerdict::kThreadLocal) << variable.name;
      EXPECT_NE(variable.kind, AgentKind::kNull) << variable.name;
    }
  }
  EXPECT_EQ(escaping_seen, corpus.escaping_objects.size());
}

TEST(InterprocCorpusTest, AndersenKeepsConflatedNoiseUnmarked) {
  // The corpus plants noise objects whose address shares a register with a
  // pool address: Steensgaard's unification marks their probe access
  // (spurious), Andersen does not.
  InterprocSpec spec;
  spec.workers = 4;
  spec.conflated_noise = 4;
  const InterprocCorpus corpus = BuildInterprocModule(spec);
  auto spurious = [](const SyncOpReport& report) {
    size_t count = 0;
    for (const auto& site : report.type_iii) {
      if (site.source_line.rfind("noise:", 0) == 0) {
        ++count;
      }
    }
    return count;
  };
  EXPECT_EQ(spurious(IdentifySyncOpsAndersen(corpus.module)), 0u);
  EXPECT_GE(spurious(IdentifySyncOps(corpus.module)), spec.conflated_noise);
}

// --- Differential property tests: wave == textbook oracle (both field
// modes), Andersen <= Steensgaard

// Randomized module with pointer chains, field selects (including
// field-of-field and opaque arithmetic after a field select), direct and
// indirect calls, params and returns. Deterministic per seed; failures below
// print the seed.
MirModule BuildRandomModule(uint64_t seed) {
  Rng rng(seed);
  MirBuilder builder("random_" + std::to_string(seed));
  const size_t function_count = 2 + rng.NextBelow(4);
  const size_t object_count = 3 + rng.NextBelow(8);

  std::vector<int32_t> objects;
  for (size_t i = 0; i < object_count; ++i) {
    objects.push_back(builder.Object("o" + std::to_string(i),
                                     rng.NextBool(0.5) ? MirStorage::kGlobal
                                                       : MirStorage::kStack));
  }

  std::vector<int32_t> functions(function_count);
  std::vector<std::vector<int32_t>> params(function_count);
  std::vector<std::vector<int32_t>> regs(function_count);
  for (size_t f = 0; f < function_count; ++f) {
    functions[f] = builder.Function("fn" + std::to_string(f));
    const size_t param_count = rng.NextBelow(3);
    for (size_t i = 0; i < param_count; ++i) {
      const int32_t param = builder.Param();
      params[f].push_back(param);
      regs[f].push_back(param);
    }
  }

  for (size_t f = 0; f < function_count; ++f) {
    builder.Select(functions[f]);
    auto any_reg = [&]() -> int32_t {
      if (regs[f].empty() || rng.NextBool(0.3)) {
        const int32_t reg = builder.Reg();
        regs[f].push_back(reg);
        return reg;
      }
      return regs[f][rng.NextBelow(regs[f].size())];
    };
    const size_t inst_count = 5 + rng.NextBelow(20);
    for (size_t i = 0; i < inst_count; ++i) {
      switch (rng.NextBelow(9)) {
        case 0:
          builder.AddrOf(any_reg(), objects[rng.NextBelow(objects.size())]);
          break;
        case 1:
          builder.Mov(any_reg(), any_reg());
          break;
        case 2:
          builder.Gep(any_reg(), any_reg());
          break;
        case 3:
          builder.LockRmw(any_reg(), "rmw:" + std::to_string(i));
          break;
        case 4:
          if (rng.NextBool(0.5)) {
            builder.Load(any_reg(), "mem:" + std::to_string(i));
          } else {
            builder.Store(any_reg(), "mem:" + std::to_string(i));
          }
          break;
        case 5: {  // Direct call with positional args.
          const size_t target = rng.NextBelow(function_count);
          std::vector<int32_t> args;
          for (size_t p = 0; p < params[target].size(); ++p) {
            args.push_back(any_reg());
          }
          builder.Call(rng.NextBool(0.5) ? any_reg() : -1,
                       builder.FunctionObject(functions[target]), std::move(args));
          break;
        }
        case 6: {  // Indirect call: fptr gets 1-2 function addresses first.
          const int32_t fptr = any_reg();
          const size_t fanout = 1 + rng.NextBelow(2);
          size_t max_params = 0;
          for (size_t t = 0; t < fanout; ++t) {
            const size_t target = rng.NextBelow(function_count);
            builder.AddrOf(fptr, builder.FunctionObject(functions[target]));
            max_params = std::max(max_params, params[target].size());
          }
          std::vector<int32_t> args;
          for (size_t p = 0; p < max_params; ++p) {
            args.push_back(any_reg());
          }
          builder.CallIndirect(-1, fptr, std::move(args));
          break;
        }
        case 7: {  // Field select, then maybe a second select off the result.
          const int32_t member = any_reg();
          builder.GepField(member, any_reg(), static_cast<int32_t>(rng.NextBelow(4)));
          switch (rng.NextBelow(3)) {
            case 0:  // Field-of-field.
              builder.GepField(any_reg(), member, static_cast<int32_t>(rng.NextBelow(4)));
              break;
            case 1:  // Opaque arithmetic after a field select.
              builder.Gep(any_reg(), member);
              break;
            default:
              break;
          }
          break;
        }
        default:
          builder.Alloc(any_reg(), objects[rng.NextBelow(objects.size())]);
          break;
      }
    }
    if (rng.NextBool(0.5) && !regs[f].empty()) {
      builder.Return(regs[f][rng.NextBelow(regs[f].size())]);
    }
  }
  return builder.Build();
}

TEST(DifferentialTest, WaveAndersenMatchesOracleExactly) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const MirModule module = BuildRandomModule(seed);
    const oracle::OracleSolution expected = oracle::SolveOracle(module, /*gep_as_copy=*/true);
    const AndersenAnalysis wave(module);
    for (int32_t reg = 0; reg < module.register_count; ++reg) {
      ASSERT_EQ(wave.PointsToSorted(reg), expected.Objects(reg))
          << "solutions diverge at r" << reg << "; reproduce with seed=" << seed;
    }
  }
}

TEST(DifferentialTest, FieldSensitiveWaveMatchesOracleExactly) {
  size_t smeared = 0;
  size_t selected = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    const MirModule module = BuildRandomModule(seed);
    const oracle::OracleSolution expected = oracle::SolveOracle(module, /*gep_as_copy=*/false);
    const FieldSensitiveAnalysis wave(module);
    for (int32_t reg = 0; reg < module.register_count; ++reg) {
      const std::vector<FieldLoc> locs = expected.Locs(reg);
      ASSERT_EQ(wave.PointsTo(reg), locs)
          << "solutions diverge at r" << reg << "; reproduce with seed=" << seed;
      for (const FieldLoc& loc : locs) {
        smeared += loc.field == FieldLoc::kAnyField ? 1 : 0;
        selected += loc.field > 0 ? 1 : 0;
      }
    }
  }
  // The seeds must exercise both smear outcomes, or the test proves little.
  EXPECT_GT(smeared, 0u);
  EXPECT_GT(selected, 0u);
}

TEST(DifferentialTest, AndersenIsSubsetOfSteensgaard) {
  // Unification only ever merges classes: per register, Steensgaard's
  // points-to set must contain Andersen's.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const MirModule module = BuildRandomModule(seed);
    const AndersenAnalysis andersen(module);
    const PointsToAnalysis steensgaard(module);
    for (int32_t reg = 0; reg < module.register_count; ++reg) {
      const std::set<int32_t> coarse = steensgaard.PointsTo(reg);
      andersen.ForEachPointee(reg, [&](int32_t object) {
        ASSERT_TRUE(coarse.count(object))
            << "r" << reg << " -> o" << object
            << " found by Andersen but not Steensgaard; reproduce with seed=" << seed;
      });
    }
  }
}

// The two-stage identification recomputed from an oracle solution: the
// indices of the loads/stores the pipeline must mark, given which oracle
// locations alias (objects alone when field-insensitive).
struct OracleMarks {
  std::set<int32_t> sync_objects;
  std::vector<size_t> type_iii;
  size_t unmarked = 0;
};

OracleMarks MarksFromOracle(const MirModule& module, const oracle::OracleSolution& solution,
                            bool field_sensitive) {
  OracleMarks marks;
  std::vector<FieldLoc> sync_locs;
  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      if (inst.op == MirOp::kLockRmw || inst.op == MirOp::kXchg) {
        for (const FieldLoc& loc : solution.points_to[inst.ptr]) {
          marks.sync_objects.insert(loc.object);
          sync_locs.push_back(loc);
        }
      }
    }
  }
  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLoad && inst.op != MirOp::kStore) {
        continue;
      }
      bool marked = false;
      for (const FieldLoc& loc : solution.points_to[inst.ptr]) {
        for (const FieldLoc& sync : sync_locs) {
          marked |= field_sensitive ? LocsMayAlias(loc, sync) : loc.object == sync.object;
        }
      }
      if (marked) {
        marks.type_iii.push_back(i);
      } else {
        ++marks.unmarked;
      }
    }
  }
  return marks;
}

TEST(DifferentialTest, PipelinesMatchOracleReports) {
  // End-to-end: the full two-stage reports of both Andersen pipelines equal
  // the ones the oracle's solutions imply (sync objects, marked site
  // indices in module order, unmarked counts).
  for (uint64_t seed = 100; seed <= 130; ++seed) {
    const MirModule module = BuildRandomModule(seed);
    for (const bool field_sensitive : {false, true}) {
      const OracleMarks expected = MarksFromOracle(
          module, oracle::SolveOracle(module, /*gep_as_copy=*/!field_sensitive),
          field_sensitive);
      const SyncOpReport report = field_sensitive ? IdentifySyncOpsFieldSensitive(module)
                                                  : IdentifySyncOpsAndersen(module);
      std::vector<size_t> marked;
      for (const SyncOpSite& site : report.type_iii) {
        marked.push_back(site.instruction_index);
      }
      ASSERT_EQ(report.sync_objects, expected.sync_objects)
          << "seed=" << seed << " field_sensitive=" << field_sensitive;
      ASSERT_EQ(marked, expected.type_iii)
          << "seed=" << seed << " field_sensitive=" << field_sensitive;
      ASSERT_EQ(report.unmarked_memops, expected.unmarked)
          << "seed=" << seed << " field_sensitive=" << field_sensitive;
    }
  }
}

TEST(StatsTest, ReportsCarrySolverStats) {
  const MirModule module = BuildListing1Module();
  const SyncOpReport steensgaard = IdentifySyncOps(module);
  EXPECT_EQ(steensgaard.stats.solver, "steensgaard");
  EXPECT_GT(steensgaard.stats.constraints, 0u);
  const SyncOpReport wave = IdentifySyncOpsAndersen(module);
  EXPECT_EQ(wave.stats.solver, "andersen-wave");
  EXPECT_GT(wave.stats.constraints, 0u);
  EXPECT_GT(wave.stats.points_to_bytes, 0u);
  const SyncOpReport sensitive = IdentifySyncOpsFieldSensitive(module);
  EXPECT_EQ(sensitive.stats.solver, "field-sensitive");
  EXPECT_GT(sensitive.stats.points_to_bytes, 0u);
}

}  // namespace
}  // namespace mvee
