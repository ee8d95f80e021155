// Unit tests for the chase engines: tgd chase, reverse (disjunctive) chase,
// SO-tgd chase, SO-inverse chase, round trips.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/symbol_context.h"
#include "chase/chase_reverse.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "chase/round_trip.h"
#include "engine/execution_options.h"
#include "engine/failpoint.h"
#include "eval/hom.h"
#include "hom_oracles.h"
#include "inversion/cq_maximum_recovery.h"
#include "inversion/maximum_recovery.h"
#include "mapgen/generators.h"
#include "parser/parser.h"

namespace mapinv {
namespace {

// Example 3.1: M given by R(x,y) ∧ S(y,z) → T(x,z).
TgdMapping JoinMapping() {
  Tgd tgd;
  tgd.premise = {Atom::Vars("R", {"x", "y"}), Atom::Vars("S", {"y", "z"})};
  tgd.conclusion = {Atom::Vars("T", {"x", "z"})};
  return TgdMapping(Schema{{"R", 2}, {"S", 2}}, Schema{{"T", 2}}, {tgd});
}

Instance JoinSource() {
  Instance inst(Schema{{"R", 2}, {"S", 2}});
  EXPECT_TRUE(inst.AddInts("R", {1, 2}).ok());
  EXPECT_TRUE(inst.AddInts("R", {3, 4}).ok());
  EXPECT_TRUE(inst.AddInts("S", {2, 5}).ok());
  return inst;
}

TEST(ChaseTgdTest, FullTgdProducesExactJoin) {
  TgdMapping m = JoinMapping();
  Instance target = *ChaseTgds(m, JoinSource());
  EXPECT_EQ(target.ToString(), "{ T(1,5) }");
}

TEST(ChaseTgdTest, ExistentialsGetFreshNulls) {
  // T(x,y) -> EXISTS u . R(x,u) applied to {T(1,5)}.
  Tgd tgd;
  tgd.premise = {Atom::Vars("T", {"x", "y"})};
  tgd.conclusion = {Atom::Vars("R", {"x", "u"})};
  TgdMapping m(Schema{{"T", 2}}, Schema{{"R", 2}}, {tgd});
  Instance input(Schema{{"T", 2}});
  ASSERT_TRUE(input.AddInts("T", {1, 5}).ok());
  Instance out = *ChaseTgds(m, input);
  RelationId r = out.schema().Find("R");
  ASSERT_EQ(out.TuplesCopy(r).size(), 1u);
  EXPECT_EQ(out.TuplesCopy(r)[0][0], Value::Int(1));
  EXPECT_TRUE(out.TuplesCopy(r)[0][1].is_null());
}

TEST(ChaseTgdTest, StandardChaseSkipsSatisfiedTriggers) {
  // A(x) -> EXISTS y . P(x,y) and B(x) -> P(x,x): for I = {A(1), B(1)}, the
  // standard chase may satisfy the first tgd via P(1,1) if fired second, but
  // firing order is dependency order, so we get P(1,n) then P(1,1). Use the
  // reversed order to observe the skip.
  Tgd t1;
  t1.premise = {Atom::Vars("B", {"x"})};
  t1.conclusion = {Atom::Vars("P", {"x", "x"})};
  Tgd t2;
  t2.premise = {Atom::Vars("A", {"x"})};
  t2.conclusion = {Atom::Vars("P", {"x", "y"})};
  TgdMapping m(Schema{{"A", 1}, {"B", 1}}, Schema{{"P", 2}}, {t1, t2});
  Instance input(Schema{{"A", 1}, {"B", 1}});
  ASSERT_TRUE(input.AddInts("A", {1}).ok());
  ASSERT_TRUE(input.AddInts("B", {1}).ok());
  Instance standard = *ChaseTgds(m, input);
  EXPECT_EQ(standard.TotalSize(), 1u);  // P(1,1) satisfies both
  ExecutionOptions oblivious;
  oblivious.oblivious = true;
  Instance naive = *ChaseTgds(m, input, oblivious);
  EXPECT_EQ(naive.TotalSize(), 2u);  // P(1,1) and P(1,_N)
}

TEST(ChaseTgdTest, MultiAtomConclusionSharesExistential) {
  // R(x) -> EXISTS y . T(x,y), U(y): the same null must appear in both.
  Tgd tgd;
  tgd.premise = {Atom::Vars("R", {"x"})};
  tgd.conclusion = {Atom::Vars("T", {"x", "y"}), Atom::Vars("U", {"y"})};
  TgdMapping m(Schema{{"R", 1}}, Schema{{"T", 2}, {"U", 1}}, {tgd});
  Instance input(Schema{{"R", 1}});
  ASSERT_TRUE(input.AddInts("R", {1}).ok());
  Instance out = *ChaseTgds(m, input);
  RelationId t = out.schema().Find("T");
  RelationId u = out.schema().Find("U");
  ASSERT_EQ(out.TuplesCopy(t).size(), 1u);
  ASSERT_EQ(out.TuplesCopy(u).size(), 1u);
  EXPECT_EQ(out.TuplesCopy(t)[0][1], out.TuplesCopy(u)[0][0]);
}

TEST(ChaseTgdTest, CertainAnswers) {
  // certain(T(x,z), I) for the join mapping: exactly the join tuples.
  TgdMapping m = JoinMapping();
  ConjunctiveQuery q;
  q.head = {InternVar("x"), InternVar("z")};
  q.atoms = {Atom::Vars("T", {"x", "z"})};
  AnswerSet ans = *CertainAnswersTgd(m, JoinSource(), q);
  ASSERT_EQ(ans.tuples.size(), 1u);
  EXPECT_EQ(ans.tuples[0], Tuple({Value::Int(1), Value::Int(5)}));
}

TEST(ChaseTgdTest, ResourceLimitEnforced) {
  TgdMapping m = JoinMapping();
  Instance big(Schema{{"R", 2}, {"S", 2}});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(big.AddInts("R", {i, 1000}).ok());
    ASSERT_TRUE(big.AddInts("S", {1000, i}).ok());
  }
  ExecutionOptions tight;
  tight.max_new_facts = 10;
  EXPECT_EQ(ChaseTgds(m, big, tight).status().code(),
            StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Degradation pins: once a fire loop degrades to a partial result, the whole
// chase stops — later tgds must not keep firing — and ExecStats.partial is
// always flagged.

// Two independent tgds; tgd order is firing order.
TgdMapping TwoTgdMapping() {
  Tgd t1;
  t1.premise = {Atom::Vars("R", {"x"})};
  t1.conclusion = {Atom::Vars("T1", {"x"})};
  Tgd t2;
  t2.premise = {Atom::Vars("S", {"x"})};
  t2.conclusion = {Atom::Vars("T2", {"x"})};
  return TgdMapping(Schema{{"R", 1}, {"S", 1}}, Schema{{"T1", 1}, {"T2", 1}},
                    {t1, t2});
}

TEST(ChaseTgdTest, MidTgdDegradeStopsTheOuterLoop) {
  TgdMapping m = TwoTgdMapping();
  Instance input(m.source);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(input.AddInts("R", {i}).ok());
  ASSERT_TRUE(input.AddInts("S", {0}).ok());
  ExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  options.max_new_facts = 5;
  options.on_exhausted = OnExhausted::kPartial;
  Instance out = *ChaseTgds(m, input, options);
  EXPECT_TRUE(stats.partial.load());
  // The limit struck inside tgd 1's fire loop: its output is cut short and
  // tgd 2 never ran — no T2 facts even though its trigger is cheap.
  EXPECT_GE(out.NumRows(out.schema().Find("T1")), 5u);
  EXPECT_LT(out.NumRows(out.schema().Find("T1")), 20u);
  EXPECT_EQ(out.NumRows(out.schema().Find("T2")), 0u);
}

TEST(ChaseTgdTest, PreCancelledPartialReturnsSoundPrefix) {
  TgdMapping m = TwoTgdMapping();
  Instance input(m.source);
  ASSERT_TRUE(input.AddInts("R", {1}).ok());
  CancelToken token;
  token.Cancel();
  ExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  options.cancel = &token;

  // kFail: cancellation is an error.
  EXPECT_EQ(ChaseTgds(m, input, options).status().code(),
            StatusCode::kCancelled);

  // kPartial: the (empty) sound prefix comes back, flagged partial.
  stats.Reset();
  options.on_exhausted = OnExhausted::kPartial;
  Result<Instance> partial = ChaseTgds(m, input, options);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(stats.partial.load());
  EXPECT_EQ(partial->TotalSize(), 0u);
}

TEST(ChaseTgdTest, InjectedInternalErrorNeverDegrades) {
  // Partial mode masks exhaustion/cancellation only; an injected kInternal
  // must surface as the error it is.
  TgdMapping m = TwoTgdMapping();
  Instance input(m.source);
  ASSERT_TRUE(input.AddInts("R", {1}).ok());
  FailPointSpec spec;
  spec.mode = FailPointSpec::Mode::kAlways;
  ASSERT_TRUE(
      FailPointRegistry::Global().Activate("chase_tgds/fire", spec).ok());
  ExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  options.on_exhausted = OnExhausted::kPartial;
  Result<Instance> result = ChaseTgds(m, input, options);
  FailPointRegistry::Global().DeactivateAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(stats.partial.load());
}

// Reverse mapping M' of Example 3.1: T(x,y) -> EXISTS u . R(x,u).
ReverseMapping ReverseRFromT(const TgdMapping& m) {
  ReverseDependency dep;
  dep.premise = {Atom::Vars("T", {"x", "y"})};
  dep.constant_vars = {InternVar("x"), InternVar("y")};
  ReverseDisjunct d;
  d.atoms = {Atom::Vars("R", {"x", "u"})};
  dep.disjuncts = {d};
  return ReverseMapping(m.target, m.source, {dep});
}

TEST(ChaseReverseTest, SingleDisjunctRecovery) {
  TgdMapping m = JoinMapping();
  ReverseMapping rm = ReverseRFromT(m);
  ASSERT_TRUE(rm.Validate().ok());
  Instance target(Schema{{"T", 2}});
  ASSERT_TRUE(target.AddInts("T", {1, 5}).ok());
  Instance back = *ChaseReverse(rm, target);
  RelationId r = back.schema().Find("R");
  ASSERT_EQ(back.TuplesCopy(r).size(), 1u);
  EXPECT_EQ(back.TuplesCopy(r)[0][0], Value::Int(1));
  EXPECT_TRUE(back.TuplesCopy(r)[0][1].is_null());
}

TEST(ChaseReverseTest, ConstantGuardBlocksNulls) {
  TgdMapping m = JoinMapping();
  ReverseMapping rm = ReverseRFromT(m);
  Instance target(Schema{{"T", 2}});
  ASSERT_TRUE(target.Add("T", {Value::FreshNull(), Value::Int(5)}).ok());
  Instance back = *ChaseReverse(rm, target);
  EXPECT_EQ(back.TotalSize(), 0u);  // C(x) fails on the null
}

TEST(ChaseReverseTest, InequalityGuard) {
  Schema tschema{{"T", 2}};
  Schema sschema{{"R", 2}};
  ReverseDependency dep;
  dep.premise = {Atom::Vars("T", {"x", "y"})};
  dep.constant_vars = {InternVar("x"), InternVar("y")};
  dep.inequalities = {{InternVar("x"), InternVar("y")}};
  ReverseDisjunct d;
  d.atoms = {Atom::Vars("R", {"x", "y"})};
  dep.disjuncts = {d};
  ReverseMapping rm(std::make_shared<const Schema>(tschema),
                    std::make_shared<const Schema>(sschema), {dep});
  Instance target(tschema);
  ASSERT_TRUE(target.AddInts("T", {1, 1}).ok());
  ASSERT_TRUE(target.AddInts("T", {1, 2}).ok());
  Instance back = *ChaseReverse(rm, target);
  EXPECT_EQ(back.ToString(), "{ R(1,2) }");
}

TEST(ChaseReverseTest, DisjunctionForksWorlds) {
  // D(x) -> A(x) ∨ B(x) over {D(1)}: two worlds.
  Schema tschema{{"D", 1}};
  Schema sschema{{"A", 1}, {"B", 1}};
  ReverseDependency dep;
  dep.premise = {Atom::Vars("D", {"x"})};
  dep.constant_vars = {InternVar("x")};
  ReverseDisjunct da;
  da.atoms = {Atom::Vars("A", {"x"})};
  ReverseDisjunct db;
  db.atoms = {Atom::Vars("B", {"x"})};
  dep.disjuncts = {da, db};
  ReverseMapping rm(std::make_shared<const Schema>(tschema),
                    std::make_shared<const Schema>(sschema), {dep});
  Instance target(tschema);
  ASSERT_TRUE(target.AddInts("D", {1}).ok());
  std::vector<Instance> worlds = *ChaseReverseWorlds(rm, target);
  ASSERT_EQ(worlds.size(), 2u);
  // Certain answers of A(x): empty (only one world has A(1)).
  ConjunctiveQuery qa;
  qa.head = {InternVar("x")};
  qa.atoms = {Atom::Vars("A", {"x"})};
  AnswerSet certain = *CertainAnswersReverse(rm, target, qa);
  EXPECT_TRUE(certain.tuples.empty());
}

TEST(ChaseReverseTest, EqualityDisjunctApplicability) {
  // P(x,y) -> (A(x,y) with x=y) ∨ B(x): on P(1,1) both apply; on P(1,2)
  // only B.
  Schema tschema{{"P", 2}};
  Schema sschema{{"A", 2}, {"B", 1}};
  ReverseDependency dep;
  dep.premise = {Atom::Vars("P", {"x", "y"})};
  ReverseDisjunct da;
  da.atoms = {Atom::Vars("A", {"x", "y"})};
  da.equalities = {{InternVar("x"), InternVar("y")}};
  ReverseDisjunct db;
  db.atoms = {Atom::Vars("B", {"x"})};
  dep.disjuncts = {da, db};
  ReverseMapping rm(std::make_shared<const Schema>(tschema),
                    std::make_shared<const Schema>(sschema), {dep});
  Instance t1(tschema);
  ASSERT_TRUE(t1.AddInts("P", {1, 2}).ok());
  std::vector<Instance> w1 = *ChaseReverseWorlds(rm, t1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0].ToString(), "{ B(1) }");
  Instance t2(tschema);
  ASSERT_TRUE(t2.AddInts("P", {1, 1}).ok());
  std::vector<Instance> w2 = *ChaseReverseWorlds(rm, t2);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(ChaseReverseTest, WorldLimitEnforced) {
  Schema tschema{{"D", 1}};
  Schema sschema{{"A", 1}, {"B", 1}};
  ReverseDependency dep;
  dep.premise = {Atom::Vars("D", {"x"})};
  ReverseDisjunct da;
  da.atoms = {Atom::Vars("A", {"x"})};
  ReverseDisjunct db;
  db.atoms = {Atom::Vars("B", {"x"})};
  dep.disjuncts = {da, db};
  ReverseMapping rm(std::make_shared<const Schema>(tschema),
                    std::make_shared<const Schema>(sschema), {dep});
  Instance target(tschema);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(target.AddInts("D", {i}).ok());
  ExecutionOptions tight;
  tight.max_worlds = 16;
  EXPECT_EQ(ChaseReverseWorlds(rm, target, tight).status().code(),
            StatusCode::kResourceExhausted);
}

// The canonical target of an E1 mapping over `b` B facts and the producer
// fact A0_0 sharing the first of them: the shape of reqbench's worlds
// requests.
Instance ExpTarget(const TgdMapping& mapping, int b) {
  std::string text = "{ ";
  for (int i = 0; i < b; ++i) text += "B(" + std::to_string(500 + i) + "), ";
  text += "A0_0(500) }";
  Instance source = ParseInstance(text, *mapping.source).ValueOrDie();
  SymbolContext symbols;
  ExecutionOptions options;
  options.symbols = &symbols;
  return ChaseTgds(mapping, source, options).ValueOrDie();
}

// Chases `input` back with `reverse`, standard and oblivious, and expects
// the reference expansion's worlds (bytes, in order) and counts. Both sides
// run under max_worlds, so an oblivious chase that forks past it must fail
// on both. Returns the number of runs that compared worlds.
int ExpectReferenceWorlds(const ReverseMapping& reverse, const Instance& input,
                          const std::string& label) {
  int compared = 0;
  for (bool oblivious : {false, true}) {
    SCOPED_TRACE(label + (oblivious ? ", oblivious" : ", standard"));
    SymbolContext symbols;
    ExecStats stats;
    ExecutionOptions options;
    options.oblivious = oblivious;
    options.symbols = &symbols;
    options.stats = &stats;
    Result<std::vector<Instance>> worlds =
        ChaseReverseWorlds(reverse, input, options);
    SymbolContext reference_symbols;
    ExecutionOptions reference_options;
    reference_options.oblivious = oblivious;
    reference_options.symbols = &reference_symbols;
    Result<ReferenceWorlds> want =
        ReferenceReverseWorlds(reverse, input, reference_options);
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), StatusCode::kResourceExhausted)
          << want.status().ToString();
      EXPECT_EQ(worlds.status().code(), want.status().code());
      continue;
    }
    if (!worlds.ok()) {
      ADD_FAILURE() << worlds.status().ToString();
      continue;
    }
    EXPECT_EQ(worlds->size(), want->worlds.size());
    for (size_t i = 0; i < worlds->size() && i < want->worlds.size(); ++i) {
      EXPECT_EQ((*worlds)[i].ToString(), want->worlds[i].ToString())
          << "world " << i;
    }
    EXPECT_EQ(stats.chase_steps.load(), want->chase_steps);
    EXPECT_EQ(stats.worlds_forked.load(), want->worlds_forked);
    ++compared;
  }
  return compared;
}

// The reverse chase expands worlds exactly as the plan-free reference
// does: ground and existential disjuncts, C(·) and ≠ guards, equalities,
// constants, repeated and 0-ary atoms.
TEST(ChaseReverseTest, WorldsMatchReferenceExpansion) {
  int compared = 0;
  // E1's maxrec, whose disjuncts are all ground, over reqbench's bands.
  struct Band {
    int n, k, b;
  };
  for (const Band& band : {Band{1, 2, 2}, Band{1, 2, 3}, Band{1, 2, 4},
                           Band{1, 3, 2}, Band{1, 3, 3}, Band{2, 2, 2},
                           Band{2, 2, 3}}) {
    const TgdMapping mapping = ExponentialFamilyMapping(band.n, band.k);
    const ReverseMapping maxrec = MaximumRecovery(mapping).ValueOrDie();
    compared += ExpectReferenceWorlds(
        maxrec, ExpTarget(mapping, band.b),
        "gen:exp:" + std::to_string(band.n) + "," + std::to_string(band.k) +
            " over " + std::to_string(band.b) + " B facts");
  }
  // Both recoveries of random mappings: existential disjuncts, and C(·)
  // and ≠ guards in the premises.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomMappingConfig config;
    config.seed = seed;
    const TgdMapping mapping = GenerateRandomMapping(config);
    const Instance source = GenerateInstance(*mapping.source, 3, 3, seed);
    SymbolContext forward_symbols;
    ExecutionOptions forward;
    forward.symbols = &forward_symbols;
    const Instance target = ChaseTgds(mapping, source, forward).ValueOrDie();
    for (bool cq : {true, false}) {
      Result<ReverseMapping> recovery =
          cq ? CqMaximumRecovery(mapping) : MaximumRecovery(mapping);
      if (!recovery.ok()) continue;
      compared += ExpectReferenceWorlds(
          *recovery, target,
          std::string(cq ? "CqMaximumRecovery" : "maxrec") + " of seed " +
              std::to_string(seed));
    }
  }
  // Hand-built dependencies. The constant conclusion term is outside the
  // inverse languages (Validate rejects it) but within what the chase fires.
  const auto tschema = std::make_shared<const Schema>(
      Schema{{"D", 1}, {"E", 1}, {"P", 2}});
  const auto sschema = std::make_shared<const Schema>(
      Schema{{"A", 2}, {"B", 1}, {"Z", 0}});
  auto disjunct = [](std::vector<Atom> atoms,
                     std::vector<VarPair> equalities = {}) {
    ReverseDisjunct d;
    d.atoms = std::move(atoms);
    d.equalities = std::move(equalities);
    return d;
  };
  auto dependency = [](Atom premise, std::vector<ReverseDisjunct> disjuncts) {
    ReverseDependency dep;
    dep.premise = {std::move(premise)};
    dep.disjuncts = std::move(disjuncts);
    return dep;
  };
  const VarId x = InternVar("x");
  const VarId y = InternVar("y");
  const ReverseMapping hand(
      tschema, sschema,
      {// A constant term: D(x) -> A(x,7) | B(x).
       dependency(Atom::Vars("D", {"x"}),
                  {disjunct({Atom("A", {Term::Var("x"),
                                        Term::Const(Value::Int(7))})}),
                   disjunct({Atom::Vars("B", {"x"})})}),
       // A repeated atom and a 0-ary one: E(x) -> B(x), B(x) | Z().
       dependency(Atom::Vars("E", {"x"}),
                  {disjunct({Atom::Vars("B", {"x"}), Atom::Vars("B", {"x"})}),
                   disjunct({Atom::Vars("Z", {})})}),
       // An equality-guarded ground disjunct: P(x,y) -> A(x,y), x=y | B(x).
       dependency(Atom::Vars("P", {"x", "y"}),
                  {disjunct({Atom::Vars("A", {"x", "y"})}, {{x, y}}),
                   disjunct({Atom::Vars("B", {"x"})})}),
       // A ground and an existential disjunct: P(x,y) -> A(x,u) | B(y).
       dependency(Atom::Vars("P", {"x", "y"}),
                  {disjunct({Atom::Vars("A", {"x", "u"})}),
                   disjunct({Atom::Vars("B", {"y"})})})});
  const Instance hand_input =
      ParseInstance("{ D(1), D(2), E(1), E(3), P(1,1), P(1,2), P(2,7) }",
                    *tschema)
          .ValueOrDie();
  compared += ExpectReferenceWorlds(hand, hand_input, "hand-built");
  // All but two of the 96 runs (oblivious chases of the largest E1 bands)
  // stay within max_worlds and compare worlds.
  EXPECT_GE(compared, 90);
}

// A disjunct atom whose arity disagrees with the schema is refused when the
// dependency compiles, before any trigger: a ground disjunct compiles no
// plan but is refused like one that does.
TEST(ChaseReverseTest, DisjunctArityMismatchIsMalformed) {
  Schema tschema{{"T", 2}};
  Schema sschema{{"R", 2}};
  ReverseDependency dep;
  dep.premise = {Atom::Vars("T", {"x", "y"})};
  for (const char* var : {"x", "u"}) {
    ReverseDisjunct d;
    d.atoms = {Atom::Vars("R", {var})};
    dep.disjuncts = {d};
    ReverseMapping rm(std::make_shared<const Schema>(tschema),
                      std::make_shared<const Schema>(sschema), {dep});
    Result<std::vector<Instance>> worlds =
        ChaseReverseWorlds(rm, Instance(tschema));
    EXPECT_EQ(worlds.status().code(), StatusCode::kMalformed) << var;
  }
}

// On gen:exp:2,2's maxrec every disjunct is ground, so every world is
// checked by row lookup: the reverse chase's only hom searches and index
// builds are its trigger collections'. A per-world plan probe would make
// 6,792 more searches here and index 513 more rows.
TEST(ChaseReverseTest, GroundDisjunctsRunNoPerWorldSearch) {
  const TgdMapping mapping = ExponentialFamilyMapping(2, 2);
  const ReverseMapping maxrec = MaximumRecovery(mapping).ValueOrDie();
  const Instance target = ExpTarget(mapping, 3);
  SymbolContext symbols;
  ExecStats stats;
  ExecutionOptions options;
  options.symbols = &symbols;
  options.stats = &stats;
  Result<std::vector<Instance>> worlds =
      ChaseReverseWorlds(maxrec, target, options);
  ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
  EXPECT_EQ(worlds->size(), 343u);
  EXPECT_EQ(stats.worlds_forked.load(), 342u);
  EXPECT_EQ(stats.chase_steps.load(), 15u);
  EXPECT_EQ(stats.hom_searches.load(), 15u);
  EXPECT_EQ(stats.index_catchup_rows.load(), 6u);
}

TEST(ChaseSOTest, SkolemTableReusesNulls) {
  // Takes(n,c) -> Enrollment(f(n),c): Example 5.1/5.2 — one id per name.
  SORule rule;
  rule.premise = {Atom::Vars("Takes", {"n", "c"})};
  rule.conclusion = {
      Atom("Enrollment", {Term::Fn("f", {Term::Var("n")}), Term::Var("c")})};
  SOTgdMapping m(std::make_shared<const Schema>(Schema{{"Takes", 2}}),
                 std::make_shared<const Schema>(Schema{{"Enrollment", 2}}),
                 SOTgd{{rule}});
  ASSERT_TRUE(m.Validate().ok());
  Instance source(Schema{{"Takes", 2}});
  ASSERT_TRUE(source.Add("Takes", {Value::MakeConstant("n1"),
                                   Value::MakeConstant("c1")}).ok());
  ASSERT_TRUE(source.Add("Takes", {Value::MakeConstant("n1"),
                                   Value::MakeConstant("c2")}).ok());
  ASSERT_TRUE(source.Add("Takes", {Value::MakeConstant("n2"),
                                   Value::MakeConstant("c1")}).ok());
  Instance target = *ChaseSOTgd(m, source);
  RelationId e = target.schema().Find("Enrollment");
  ASSERT_EQ(target.TuplesCopy(e).size(), 3u);
  // f(n1) identical across the two courses, distinct from f(n2).
  Value id_n1_a, id_n1_b, id_n2;
  for (const Tuple& t : target.TuplesCopy(e)) {
    if (t[1] == Value::MakeConstant("c2")) {
      id_n1_b = t[0];
    } else if (t[0] == target.TuplesCopy(e)[0][0]) {
      id_n1_a = t[0];
    }
  }
  id_n1_a = target.TuplesCopy(e)[0][0];
  id_n2 = target.TuplesCopy(e)[2][0];
  EXPECT_EQ(id_n1_a, id_n1_b);
  EXPECT_NE(id_n1_a, id_n2);
}

TEST(ChaseSOTest, PaperRule9CanonicalInstance) {
  // R(x,y,z) -> T(x, f(y), f(y), g(x,z)) over {R(1,2,3)} gives
  // {T(1,a,a,b)} with a ≠ b — the Section 5.2 walkthrough.
  SORule rule;
  rule.premise = {Atom::Vars("R", {"x", "y", "z"})};
  rule.conclusion = {
      Atom("T", {Term::Var("x"), Term::Fn("f", {Term::Var("y")}),
                 Term::Fn("f", {Term::Var("y")}),
                 Term::Fn("g", {Term::Var("x"), Term::Var("z")})})};
  SOTgdMapping m(std::make_shared<const Schema>(Schema{{"R", 3}}),
                 std::make_shared<const Schema>(Schema{{"T", 4}}),
                 SOTgd{{rule}});
  Instance source(Schema{{"R", 3}});
  ASSERT_TRUE(source.AddInts("R", {1, 2, 3}).ok());
  Instance target = *ChaseSOTgd(m, source);
  RelationId t = target.schema().Find("T");
  ASSERT_EQ(target.TuplesCopy(t).size(), 1u);
  const Tuple tuple = target.TuplesCopy(t)[0];
  EXPECT_EQ(tuple[0], Value::Int(1));
  EXPECT_TRUE(tuple[1].is_null());
  EXPECT_EQ(tuple[1], tuple[2]);
  EXPECT_TRUE(tuple[3].is_null());
  EXPECT_NE(tuple[1], tuple[3]);
}

TEST(RoundTripTest, JoinMappingRecoversFirstColumn) {
  // Example 3.1 end-to-end: M ∘ M' with M' = T(x,y) → ∃u R(x,u); the
  // certain answers of Q(x) = ∃y R(x,y) over the round trip are {1} ⊆ {1,3}.
  TgdMapping m = JoinMapping();
  ReverseMapping rm = ReverseRFromT(m);
  ConjunctiveQuery q;
  q.head = {InternVar("x")};
  q.atoms = {Atom::Vars("R", {"x", "y"})};
  AnswerSet certain = *RoundTripCertain(m, rm, JoinSource(), q);
  ASSERT_EQ(certain.tuples.size(), 1u);
  EXPECT_EQ(certain.tuples[0], Tuple({Value::Int(1)}));
  // Direct evaluation gives {1, 3}: the recovery is sound (⊆).
  AnswerSet direct = *EvaluateCq(q, JoinSource());
  EXPECT_TRUE(certain.SubsetOf(direct));
}

TEST(RoundTripTest, BetterRecoveryRecoversJoin) {
  // M'' = T(x,y) → ∃u (R(x,u) ∧ S(u,y)) recovers the join answer (1,5)
  // (Example 3.3).
  TgdMapping m = JoinMapping();
  ReverseDependency dep;
  dep.premise = {Atom::Vars("T", {"x", "y"})};
  dep.constant_vars = {InternVar("x"), InternVar("y")};
  ReverseDisjunct d;
  d.atoms = {Atom::Vars("R", {"x", "u"}), Atom::Vars("S", {"u", "y"})};
  dep.disjuncts = {d};
  ReverseMapping rm(m.target, m.source, {dep});
  ConjunctiveQuery join;
  join.head = {InternVar("x"), InternVar("y")};
  join.atoms = {Atom::Vars("R", {"x", "z"}), Atom::Vars("S", {"z", "y"})};
  AnswerSet certain = *RoundTripCertain(m, rm, JoinSource(), join);
  ASSERT_EQ(certain.tuples.size(), 1u);
  EXPECT_EQ(certain.tuples[0], Tuple({Value::Int(1), Value::Int(5)}));
}

}  // namespace
}  // namespace mapinv
