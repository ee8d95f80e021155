// E8 — Incremental chase: absorbing a small append via ChaseDelta costs
// O(|delta|), not O(|source|).
//
// Compares, over the same grown source (base of N rows per relation plus a
// ~1% append), (a) ChaseDelta firing only the delta triggers into a fork of
// the already-chased target against (b) the full re-chase from scratch. The
// `wall` gap between BM_ChaseDelta_Absorb and BM_ChaseDelta_FullRechase at
// the same N is the headline number (≥5× expected well before N = 1024);
// `delta_rows`/`fired` pin what the incremental run actually did.

#include <algorithm>
#include <string>

#include <benchmark/benchmark.h>

#include "chase/chase_delta.h"
#include "chase/chase_tgd.h"
#include "chase/maintained.h"
#include "mapgen/generators.h"

namespace mapinv {
namespace {

constexpr int kChainLength = 3;

// Base of `tuples` rows per relation plus a ~1% appended slice, with the
// watermark between them. Shared by both sides of the comparison.
struct DeltaWorkload {
  TgdMapping mapping = ChainJoinMapping(kChainLength);
  Instance grown;
  DeltaWatermark mark;
  Instance base_target;
  SymbolContext symbols;
  int delta_rows = 0;

  explicit DeltaWorkload(int tuples)
      : grown(mapping.source), base_target(mapping.target) {
    delta_rows = std::max(1, tuples / 100);
    Instance base =
        GenerateInstance(*mapping.source, tuples, tuples / 4 + 2, 23);
    Instance delta =
        GenerateInstance(*mapping.source, delta_rows, tuples / 4 + 2, 57);
    ExecutionOptions options;
    options.symbols = &symbols;
    base_target = ChaseTgds(mapping, base, options).ValueOrDie();
    grown = base.Fork();
    mark = WatermarkOf(grown);
    (void)grown.UnionWith(delta);
  }
};

void BM_ChaseDelta_Absorb(benchmark::State& state) {
  DeltaWorkload w(static_cast<int>(state.range(0)));
  ExecutionOptions options;
  options.symbols = &w.symbols;
  size_t fired = 0;
  for (auto _ : state) {
    Instance target = w.base_target.Fork();
    ChaseProvenance provenance;
    bool complete =
        ChaseDelta(w.mapping, w.grown, w.mark, &target, &provenance, options)
            .ValueOrDie();
    benchmark::DoNotOptimize(complete);
    fired = provenance.FiredCount();
  }
  state.counters["tuples_in"] = static_cast<double>(state.range(0));
  state.counters["delta_rows"] = static_cast<double>(w.delta_rows);
  state.counters["fired"] = static_cast<double>(fired);
}

void BM_ChaseDelta_FullRechase(benchmark::State& state) {
  DeltaWorkload w(static_cast<int>(state.range(0)));
  size_t produced = 0;
  for (auto _ : state) {
    Instance target = ChaseTgds(w.mapping, w.grown).ValueOrDie();
    produced = target.TotalSize();
    benchmark::DoNotOptimize(target);
  }
  state.counters["tuples_in"] = static_cast<double>(state.range(0));
  state.counters["delta_rows"] = static_cast<double>(w.delta_rows);
  state.counters["facts_out"] = static_cast<double>(produced);
}

// The serving-layer wrapper end to end: parse-append one row, refresh.
void BM_MaintainedSolution_AppendRefresh(benchmark::State& state) {
  auto mapping =
      std::make_shared<TgdMapping>(ChainJoinMapping(kChainLength));
  const int tuples = static_cast<int>(state.range(0));
  MaintainedSolution maintained(mapping);
  Instance base = GenerateInstance(*mapping->source, tuples, tuples / 4 + 2, 23);
  (void)maintained.AppendInstance(base).ValueOrDie();
  (void)maintained.RefreshAndRender({}).ValueOrDie();
  int next = 1000000;  // appended values outside the generated domain
  for (auto _ : state) {
    std::string row = "{ R1(" + std::to_string(next) + "," +
                      std::to_string(next + 1) + ") }";
    ++next;
    (void)maintained.AppendText(row).ValueOrDie();
    std::string rendered = maintained.RefreshAndRender({}).ValueOrDie();
    benchmark::DoNotOptimize(rendered);
  }
  state.counters["tuples_in"] = static_cast<double>(tuples);
  state.counters["refreshes"] =
      static_cast<double>(maintained.CountersSnapshot().refreshes);
}

// One session write cycle, as mapinv_serve runs an append to a registered
// instance that by-ref requests also read: append a few rows, refresh and
// render, keep the source snapshot the session registers
// (Session::SyncRegisteredSource), and chase over that snapshot as a by-ref
// read does (untimed). The snapshot shares every store with the maintained
// source and carries the index the chase built, so each write clones the
// stores it touches, dedup table and index included: the clone that
// BM_MaintainedSolution_AppendRefresh, whose source is never shared, skips.
void BM_MaintainedSolution_SessionWrite(benchmark::State& state) {
  auto mapping =
      std::make_shared<TgdMapping>(ChainJoinMapping(kChainLength));
  const int tuples = static_cast<int>(state.range(0));
  MaintainedSolution maintained(mapping);
  Instance base = GenerateInstance(*mapping->source, tuples, tuples / 4 + 2, 23);
  (void)maintained.AppendInstance(base).ValueOrDie();
  (void)maintained.RefreshAndRender({}).ValueOrDie();
  Instance registered = maintained.SourceSnapshot();
  (void)ChaseTgds(*mapping, registered).ValueOrDie();
  int next = 1000000;  // appended values outside the generated domain
  for (auto _ : state) {
    // Four rows, one per chain relation plus one more, that join into one
    // new target fact.
    const std::string a = std::to_string(next), b = std::to_string(next + 1),
                      c = std::to_string(next + 2), d = std::to_string(next + 3);
    next += 4;
    const std::string rows = "{ R0(" + a + "," + b + "), R1(" + b + "," + c +
                             "), R2(" + c + "," + d + "), R0(" + d + "," + a +
                             ") }";
    (void)maintained.AppendText(rows).ValueOrDie();
    std::string rendered = maintained.RefreshAndRender({}).ValueOrDie();
    benchmark::DoNotOptimize(rendered);
    registered = maintained.SourceSnapshot();
    state.PauseTiming();
    Instance target = ChaseTgds(*mapping, registered).ValueOrDie();
    benchmark::DoNotOptimize(target);
    state.ResumeTiming();
  }
  state.counters["tuples_in"] = static_cast<double>(tuples);
  state.counters["source_rows"] =
      static_cast<double>(registered.TotalSize());
}

BENCHMARK(BM_ChaseDelta_Absorb)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_ChaseDelta_FullRechase)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK(BM_MaintainedSolution_AppendRefresh)->Arg(256)->Arg(1024);
BENCHMARK(BM_MaintainedSolution_SessionWrite)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace mapinv
