#include "inversion/eliminate_disjunctions.h"

#include "engine/failpoint.h"
#include "engine/trace.h"
#include "inversion/query_product.h"

namespace mapinv {

namespace {
FailPoint fp_elim_disj_entry("eliminate_disjunctions/entry");
FailPoint fp_elim_disj_product("eliminate_disjunctions/product");
}  // namespace

Result<ReverseMapping> EliminateDisjunctions(ReverseMapping recovery,
                                             const ExecutionOptions& options) {
  // No whole-mapping Validate here: the input is EliminateEqualities output,
  // which is Bell-number large, and that stage already validated the mapping
  // it expanded (renaming variables cannot un-validate it). Only the checks
  // this pass itself relies on run: schemas present and equality-free
  // disjuncts. The mapping is taken by value so the pipeline can hand over
  // its intermediate and every dependency is transformed by move.
  if (!recovery.source || !recovery.target) {
    return Status::InvalidArgument("mapping has null schema");
  }
  if (!recovery.IsEqualityFree()) {
    return Status::InvalidArgument(
        "EliminateDisjunctions expects equality-free disjuncts; run "
        "EliminateEqualities first");
  }
  ScopedTraceSpan span(options, "eliminate_disjunctions");
  MAPINV_FAILPOINT(fp_elim_disj_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  // Degradation granularity: whole dependencies — a dependency is either
  // fully transformed into its conjunctive product or dropped (skipped on an
  // oversized product, or left behind when the budget runs out). Either way
  // the output is a dependency subset of the full transform: sound.
  ReverseMapping out(recovery.source, recovery.target, {});
  out.deps.reserve(recovery.deps.size());
  for (ReverseDependency& dep : recovery.deps) {
    if (Status poll =
            PollPhaseInterrupt(options, deadline, "eliminate_disjunctions");
        !poll.ok()) {
      if (DegradeToPartial(options, poll)) break;
      return poll;
    }
    MAPINV_FAILPOINT(fp_elim_disj_product);
    // The product materialises prod(|dᵢ|) atoms; refuse to build one larger
    // than max_disjuncts (saturating multiply — widths can overflow).
    size_t product_size = 1;
    for (const ReverseDisjunct& d : dep.disjuncts) {
      const size_t arity = d.atoms.size();
      if (arity != 0 && product_size > options.max_disjuncts / arity) {
        product_size = options.max_disjuncts + 1;  // saturate
        break;
      }
      product_size *= arity;
    }
    if (product_size > options.max_disjuncts) {
      Status exhausted = PhaseExhausted(
          "eliminate_disjunctions",
          "conjunctive product of " + std::to_string(dep.disjuncts.size()) +
              " disjuncts exceeds max_disjuncts = " +
              std::to_string(options.max_disjuncts) + " atoms");
      if (DegradeToPartial(options, exhausted)) continue;  // skip this dep
      return exhausted;
    }
    std::vector<Atom> product;
    if (dep.disjuncts.size() == 1) {
      // The product of a single query is the query itself.
      product = std::move(dep.disjuncts[0].atoms);
    } else {
      std::vector<std::vector<Atom>> disjunct_atoms;
      disjunct_atoms.reserve(dep.disjuncts.size());
      for (ReverseDisjunct& d : dep.disjuncts) {
        disjunct_atoms.push_back(std::move(d.atoms));
      }
      product =
          ProductOfMany(dep.constant_vars, disjunct_atoms, options.symbols);
    }
    if (product.empty()) continue;  // empty product: drop the dependency
    ReverseDisjunct single;
    single.atoms = std::move(product);
    dep.disjuncts.clear();
    dep.disjuncts.push_back(std::move(single));
    out.deps.push_back(std::move(dep));
  }
  // No exit validation: every output dependency reuses a validated premise
  // and a product of validated disjunct atoms (see EliminateEqualities for
  // why these whole-mapping passes matter on Bell-number-sized inputs).
  return out;
}

}  // namespace mapinv
