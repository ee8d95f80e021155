// A1 (ablation) — instance cores: the cost of minimising canonical
// instances, and how much the oblivious chase over-produces relative to the
// standard chase (the redundancy that core computation removes).
//
// Not a paper table; this ablates the "which canonical instance" design
// choice called out in DESIGN.md (oblivious for equivalence checks,
// standard for exchange, core for the smallest universal solution).
//
// Every iteration times a full fold: CoreOfInstance memoises its answer in
// GlobalEvalCache(), so the cache is cleared (untimed) before each call.

#include <benchmark/benchmark.h>

#include "chase/chase_tgd.h"
#include "engine/eval_cache.h"
#include "eval/instance_core.h"
#include "mapgen/generators.h"

namespace mapinv {
namespace {

// Drops the memoised cores outside the timed region, so the next
// CoreOfInstance call folds instead of hitting the cache.
void ClearEvalCacheUntimed(benchmark::State& state) {
  state.PauseTiming();
  GlobalEvalCache().Clear();
  state.ResumeTiming();
}

void BM_Core_InterchangeableBlock(benchmark::State& state) {
  // n facts R(c, _Ni): all nulls interchangeable; the core keeps one fact.
  const int n = static_cast<int>(state.range(0));
  Instance inst(Schema{{"R", 2}});
  for (int i = 0; i < n; ++i) {
    inst.Add("R", {Value::Int(7), Value::FreshNull()}).ValueOrDie();
  }
  size_t core_size = 0;
  for (auto _ : state) {
    ClearEvalCacheUntimed(state);
    Instance core = CoreOfInstance(inst).ValueOrDie();
    core_size = core.TotalSize();
    benchmark::DoNotOptimize(core);
  }
  state.counters["facts_in"] = n;
  state.counters["core_size"] = static_cast<double>(core_size);
}

void BM_Core_LinkedChains(benchmark::State& state) {
  // n parallel 2-step null chains between the same constants: fold to one.
  const int n = static_cast<int>(state.range(0));
  Instance inst(Schema{{"R", 2}, {"S", 2}});
  for (int i = 0; i < n; ++i) {
    Value null = Value::FreshNull();
    inst.Add("R", {Value::Int(1), null}).ValueOrDie();
    inst.Add("S", {null, Value::Int(2)}).ValueOrDie();
  }
  size_t core_size = 0;
  for (auto _ : state) {
    ClearEvalCacheUntimed(state);
    Instance core = CoreOfInstance(inst).ValueOrDie();
    core_size = core.TotalSize();
    benchmark::DoNotOptimize(core);
  }
  state.counters["facts_in"] = 2.0 * n;
  state.counters["core_size"] = static_cast<double>(core_size);
}

void BM_Core_OfObliviousChase(benchmark::State& state) {
  // Oblivious chase redundancy removed by the core: A(x) -> ∃y P(x,y) plus
  // B(x) -> P(x,x), with overlapping A/B contents.
  const int n = static_cast<int>(state.range(0));
  Tgd t1;
  t1.premise = {Atom::Vars("A", {"x"})};
  t1.conclusion = {Atom::Vars("P", {"x", "y"})};
  Tgd t2;
  t2.premise = {Atom::Vars("B", {"x"})};
  t2.conclusion = {Atom::Vars("P", {"x", "x"})};
  TgdMapping m(Schema{{"A", 1}, {"B", 1}}, Schema{{"P", 2}}, {t1, t2});
  Instance source(*m.source);
  for (int i = 0; i < n; ++i) {
    source.AddInts("A", {i}).ValueOrDie();
    source.AddInts("B", {i}).ValueOrDie();
  }
  ExecutionOptions oblivious;
  oblivious.oblivious = true;
  Instance naive = ChaseTgds(m, source, oblivious).ValueOrDie();
  size_t core_size = 0;
  for (auto _ : state) {
    ClearEvalCacheUntimed(state);
    Instance core = CoreOfInstance(naive).ValueOrDie();
    core_size = core.TotalSize();
    benchmark::DoNotOptimize(core);
  }
  state.counters["oblivious_facts"] = static_cast<double>(naive.TotalSize());
  state.counters["core_size"] = static_cast<double>(core_size);
}

BENCHMARK(BM_Core_InterchangeableBlock)
    ->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Core_LinkedChains)
    ->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Core_OfObliviousChase)
    ->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mapinv
