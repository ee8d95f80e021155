// Differential property tests for the compiled join-plan kernel: the
// compiled path (ForEachHom / ForEachHomWithPlan) must enumerate exactly the
// same homomorphism multiset as the reference interpreter
// (ReferenceForEachHom, tests/hom_oracles.h) on every input — random
// conjunctions and instances from mapgen, side constraints, fixed
// assignments, error contracts and early-stop semantics included.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "engine/execution_options.h"
#include "eval/hom.h"
#include "eval/hom_plan.h"
#include "hom_oracles.h"
#include "mapgen/generators.h"

namespace mapinv {
namespace {

// Canonical rendering of an assignment multiset, order-insensitive.
std::vector<std::string> Canon(const std::vector<Assignment>& homs) {
  std::vector<std::string> out;
  out.reserve(homs.size());
  for (const Assignment& h : homs) {
    std::vector<std::pair<VarId, std::string>> items;
    items.reserve(h.size());
    for (const auto& [v, val] : h) items.emplace_back(v, val.ToString());
    std::sort(items.begin(), items.end());
    std::string s;
    for (const auto& [v, val] : items) {
      s += std::to_string(v) + "=" + val + ";";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs both kernels over the same input and asserts identical outcome:
// same status code, and on success the same homomorphism multiset.
void ExpectSameHoms(const Instance& inst, const HomSearch& search,
                    const std::vector<Atom>& atoms,
                    const HomConstraints& constraints,
                    const Assignment& fixed) {
  std::vector<Assignment> compiled;
  std::vector<Assignment> reference;
  Status sc = search.ForEachHom(atoms, constraints, fixed,
                                [&](const Assignment& h) {
                                  compiled.push_back(h);
                                  return true;
                                });
  Status sr = ReferenceForEachHom(inst, atoms, constraints, fixed,
                                  [&](const Assignment& h) {
                                    reference.push_back(h);
                                    return true;
                                  });
  ASSERT_EQ(sc.code(), sr.code()) << sc.ToString() << " vs " << sr.ToString();
  if (!sc.ok()) return;
  EXPECT_EQ(Canon(compiled), Canon(reference));
}

TEST(HomPlanDifferentialTest, RandomMappingsAndInstances) {
  // Sweep over shapes: wide premises, repeated variables (small variable
  // pools), several relations. Premises of random tgds serve as the
  // conjunctions; the constraints and fixed assignments are derived
  // deterministically per round below.
  const int kShapes[][3] = {
      // {premise_atoms, premise_vars, arity}
      {1, 2, 2}, {2, 3, 2}, {3, 3, 2}, {3, 5, 3}, {4, 4, 2}, {5, 6, 3},
  };
  for (const auto& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      RandomMappingConfig config;
      config.seed = seed;
      config.num_tgds = 3;
      config.source_relations = 3;
      config.premise_atoms = shape[0];
      config.premise_vars = shape[1];
      config.arity = shape[2];
      TgdMapping mapping = GenerateRandomMapping(config);
      Instance inst = GenerateInstance(*mapping.source, /*tuples=*/24,
                                       /*domain=*/6, /*seed=*/seed * 7 + 1);
      HomSearch search(inst);
      std::mt19937_64 rng(seed * 1000003 + shape[0]);
      for (const Tgd& tgd : mapping.tgds) {
        std::vector<VarId> vars = CollectDistinctVars(tgd.premise);
        // Plain.
        ExpectSameHoms(inst, search, tgd.premise, HomConstraints{},
                       Assignment{});
        // With constraints: constrain ~half the variables to constants and
        // add a couple of inequalities (including possibly x != x).
        HomConstraints constraints;
        for (VarId v : vars) {
          if (rng() % 2 == 0) constraints.constant_vars.insert(v);
        }
        for (int i = 0; i < 2 && !vars.empty(); ++i) {
          constraints.inequalities.emplace_back(vars[rng() % vars.size()],
                                                vars[rng() % vars.size()]);
        }
        ExpectSameHoms(inst, search, tgd.premise, constraints, Assignment{});
        // With a fixed assignment: bind one variable to a value drawn from
        // the active domain (may yield zero homomorphisms — also a case the
        // two kernels must agree on).
        std::vector<Value> domain = inst.ActiveDomain();
        if (!vars.empty() && !domain.empty()) {
          Assignment fixed;
          fixed.emplace(vars[rng() % vars.size()],
                        domain[rng() % domain.size()]);
          ExpectSameHoms(inst, search, tgd.premise, constraints, fixed);
          ExpectSameHoms(inst, search, tgd.premise, HomConstraints{}, fixed);
        }
      }
    }
  }
}

TEST(HomPlanDifferentialTest, RepeatedVariablesAndConstants) {
  Instance inst(Schema{{"R", 2}, {"S", 3}});
  ASSERT_TRUE(inst.AddInts("R", {1, 1}).ok());
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(inst.AddInts("R", {2, 2}).ok());
  ASSERT_TRUE(inst.AddInts("S", {1, 1, 2}).ok());
  ASSERT_TRUE(inst.AddInts("S", {2, 2, 2}).ok());
  ASSERT_TRUE(inst.AddInts("S", {1, 2, 1}).ok());
  HomSearch search(inst);
  ExpectSameHoms(inst, search, {Atom::Vars("R", {"x", "x"})}, HomConstraints{},
                 Assignment{});
  ExpectSameHoms(inst, search, {Atom::Vars("S", {"x", "x", "y"})},
                 HomConstraints{}, Assignment{});
  ExpectSameHoms(inst, search,
                 {Atom::Vars("R", {"x", "y"}), Atom::Vars("S", {"y", "y", "x"})},
                 HomConstraints{}, Assignment{});
  Atom with_const("S", {Term::Const(Value::Int(1)), Term::Var("a"),
                        Term::Var("b")});
  ExpectSameHoms(inst, search, {with_const, Atom::Vars("R", {"a", "b"})},
                 HomConstraints{}, Assignment{});
}

TEST(HomPlanDifferentialTest, NullsAndConstantVarConstraint) {
  Instance inst(Schema{{"R", 2}});
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  Value null = Value::NullWithLabel(7);
  ASSERT_TRUE(inst.AddTuple(0, {Value::Int(1), null}).ok());
  HomSearch search(inst);
  HomConstraints constraints;
  constraints.constant_vars.insert(InternVar("y"));
  ExpectSameHoms(inst, search, {Atom::Vars("R", {"x", "y"})}, constraints,
                 Assignment{});
  // A fixed null binding under the constant constraint rejects everything
  // at init on both paths.
  Assignment fixed_null;
  fixed_null.emplace(InternVar("y"), null);
  ExpectSameHoms(inst, search, {Atom::Vars("R", {"x", "y"})}, constraints,
                 fixed_null);
}

TEST(HomPlanDifferentialTest, ErrorContracts) {
  Instance inst(Schema{{"R", 2}});
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  HomSearch search(inst);
  // Unknown relation -> kNotFound on both paths.
  ExpectSameHoms(inst, search, {Atom::Vars("Q", {"x", "y"})}, HomConstraints{},
                 Assignment{});
  Status missing = search.ForEachHom({Atom::Vars("Q", {"x", "y"})},
                                     HomConstraints{}, Assignment{},
                                     [](const Assignment&) { return true; });
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  // Arity mismatch -> kMalformed on both paths.
  ExpectSameHoms(inst, search, {Atom::Vars("R", {"x", "y", "z"})},
                 HomConstraints{}, Assignment{});
  // Function term -> kMalformed on both paths.
  Atom fn_atom("R", {Term::Var("x"),
                     Term::Fn("f", {Term::Var("x")})});
  ExpectSameHoms(inst, search, {fn_atom}, HomConstraints{}, Assignment{});
  Status fn = search.ForEachHom({fn_atom}, HomConstraints{}, Assignment{},
                                [](const Assignment&) { return true; });
  EXPECT_EQ(fn.code(), StatusCode::kMalformed);
}

TEST(HomPlanDifferentialTest, EarlyStopSemantics) {
  Instance inst(Schema{{"R", 2}, {"S", 2}});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(inst.AddInts("R", {i, i + 1}).ok());
    ASSERT_TRUE(inst.AddInts("S", {i + 1, i + 2}).ok());
  }
  HomSearch search(inst);
  const std::vector<Atom> atoms = {Atom::Vars("R", {"x", "y"}),
                                   Atom::Vars("S", {"y", "z"})};
  // Stopping after k answers yields exactly the first k of the full
  // compiled enumeration (the compiled order is deterministic).
  std::vector<Assignment> full;
  ASSERT_TRUE(search
                  .ForEachHom(atoms, HomConstraints{}, Assignment{},
                              [&](const Assignment& h) {
                                full.push_back(h);
                                return true;
                              })
                  .ok());
  ASSERT_GT(full.size(), 3u);
  for (size_t k : {size_t{1}, size_t{3}}) {
    std::vector<Assignment> prefix;
    ASSERT_TRUE(search
                    .ForEachHom(atoms, HomConstraints{}, Assignment{},
                                [&](const Assignment& h) {
                                  prefix.push_back(h);
                                  return prefix.size() < k;
                                })
                    .ok());
    ASSERT_EQ(prefix.size(), k);
    EXPECT_EQ(Canon(prefix),
              Canon({full.begin(), full.begin() + static_cast<long>(k)}));
  }
  // And any stopped-at answer is a member of the reference's full set.
  auto exists = search.ExistsHom(atoms, HomConstraints{});
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);
}

TEST(HomPlanDifferentialTest, InstanceGrowthIsPickedUp) {
  Instance inst(Schema{{"R", 2}, {"S", 2}});
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(inst.AddInts("S", {2, 3}).ok());
  HomSearch search(inst);
  const std::vector<Atom> atoms = {Atom::Vars("R", {"x", "y"}),
                                   Atom::Vars("S", {"y", "z"})};
  ExpectSameHoms(inst, search, atoms, HomConstraints{}, Assignment{});
  // Grow the instance: the cached plan's indexes must catch up.
  ASSERT_TRUE(inst.AddInts("R", {1, 5}).ok());
  ASSERT_TRUE(inst.AddInts("S", {5, 6}).ok());
  ExpectSameHoms(inst, search, atoms, HomConstraints{}, Assignment{});
}

TEST(HomPlanDifferentialTest, BucketIntersectionPath) {
  // Two bound positions with large buckets: position-0 bucket of R under x,
  // and position-1 bucket under y, both > the intersection threshold, so
  // the executor takes the set_intersection path.
  Instance inst(Schema{{"A", 2}, {"R", 2}});
  ASSERT_TRUE(inst.AddInts("A", {1, 2}).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(inst.AddInts("R", {1, i}).ok());     // big bucket for x=1
    ASSERT_TRUE(inst.AddInts("R", {i + 2, 2}).ok()); // big bucket for y=2
  }
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());  // the single joint match
  HomSearch search(inst);
  const std::vector<Atom> atoms = {Atom::Vars("A", {"x", "y"}),
                                   Atom::Vars("R", {"x", "y"})};
  ExpectSameHoms(inst, search, atoms, HomConstraints{}, Assignment{});
  std::vector<Assignment> homs;
  ASSERT_TRUE(search
                  .ForEachHom(atoms, HomConstraints{}, Assignment{},
                              [&](const Assignment& h) {
                                homs.push_back(h);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(homs.size(), 1u);
  EXPECT_EQ(homs[0].at(InternVar("x")), Value::Int(1));
  EXPECT_EQ(homs[0].at(InternVar("y")), Value::Int(2));
}

TEST(HomPlanTest, PlanIsCachedAndCountersFlow) {
  Instance inst(Schema{{"R", 2}, {"S", 2}});
  ASSERT_TRUE(inst.AddInts("R", {1, 2}).ok());
  ASSERT_TRUE(inst.AddInts("S", {2, 3}).ok());
  HomSearch search(inst);
  ExecStats stats;
  search.set_stats(&stats);
  const std::vector<Atom> atoms = {Atom::Vars("R", {"x", "y"}),
                                   Atom::Vars("S", {"y", "z"})};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(search
                    .ForEachHom(atoms, HomConstraints{}, Assignment{},
                                [](const Assignment&) { return true; })
                    .ok());
  }
  // One compilation, three searches. Searches run the scalar plan runner,
  // which books its inner-loop work per candidate and none of it under the
  // block executor's vector_* counters.
  EXPECT_EQ(stats.hom_plans_compiled.load(), 1u);
  EXPECT_EQ(stats.hom_searches.load(), 3u);
  EXPECT_EQ(stats.hom_bucket_candidates.load(), 6u);  // 1 R + 1 S, 3 times
  EXPECT_EQ(stats.hom_slot_bindings.load(), 9u);      // x, y, z, 3 times
  EXPECT_EQ(stats.hom_backtracks.load(), 0u);
  EXPECT_EQ(stats.vector_blocks_scanned.load(), 0u);
  EXPECT_EQ(stats.vector_rows_scanned.load(), 0u);
  EXPECT_EQ(stats.vector_rows_selected.load(), 0u);

  // An existence probe runs the same runner against the same cached plan.
  ASSERT_TRUE(search.ExistsHom(atoms, HomConstraints{}).ValueOrDie());
  EXPECT_EQ(stats.hom_plans_compiled.load(), 1u);
  EXPECT_EQ(stats.hom_searches.load(), 4u);
  EXPECT_EQ(stats.hom_bucket_candidates.load(), 8u);

  // A different bound-variable set is a different plan.
  Assignment fixed;
  fixed.emplace(InternVar("x"), Value::Int(1));
  ASSERT_TRUE(search
                  .ForEachHom(atoms, HomConstraints{}, fixed,
                              [](const Assignment&) { return true; })
                  .ok());
  EXPECT_EQ(stats.hom_plans_compiled.load(), 2u);

  // GetPlan returns the identical cached object.
  auto p1 = search.GetPlan(atoms, HomConstraints{});
  auto p2 = search.GetPlan(atoms, HomConstraints{});
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.ValueOrDie().get(), p2.ValueOrDie().get());
}

TEST(HomPlanTest, CompiledOrderPrefersSmallerRelationOnTies) {
  // Both atoms have zero bound positions up front; the plan must start with
  // the smaller relation (Small) even though Big comes first in the
  // conjunction.
  Instance inst(Schema{{"Big", 1}, {"Small", 1}});
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(inst.AddInts("Big", {i}).ok());
  ASSERT_TRUE(inst.AddInts("Small", {3}).ok());
  HomSearch search(inst);
  auto plan = search.GetPlan(
      {Atom::Vars("Big", {"x"}), Atom::Vars("Small", {"y"})},
      HomConstraints{});
  ASSERT_TRUE(plan.ok());
  const HomPlan& p = *plan.ValueOrDie();
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].atom_index, 1u);  // Small first
  EXPECT_EQ(p.steps[1].atom_index, 0u);
}

}  // namespace
}  // namespace mapinv
