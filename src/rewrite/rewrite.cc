#include "rewrite/rewrite.h"

#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
#include "eval/containment.h"
#include "logic/substitution.h"
#include "rewrite/skolemize.h"

namespace mapinv {

namespace {

FailPoint fp_rewrite_entry("rewrite/entry");
FailPoint fp_rewrite_disjunct("rewrite/disjunct");

// One way to resolve a single query atom: a Skolemised rule together with
// the index of the conclusion atom to unify against.
struct HeadChoice {
  const SORule* rule;
  size_t conclusion_index;
};

// Shared implementation: resolves the query atoms against the heads of the
// (Skolemised or user-authored) plain SO-tgd rules.
Result<UnionCq> RewriteAgainstRules(const SOTgd& skolemized,
                                    const ConjunctiveQuery& target_query,
                                    const ExecutionOptions& options);

}  // namespace

Result<UnionCq> RewriteOverSource(const TgdMapping& mapping,
                                  const ConjunctiveQuery& target_query,
                                  const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(SourceRewriter rewriter,
                          SourceRewriter::Prepare(mapping));
  return rewriter.Rewrite(target_query, options);
}

Result<SourceRewriter> SourceRewriter::Prepare(const TgdMapping& mapping) {
  MAPINV_RETURN_NOT_OK(mapping.Validate());
  return SourceRewriter(SkolemizeTgds(mapping.tgds, SkolemArgs::kFrontierVars),
                        mapping.target);
}

Result<UnionCq> SourceRewriter::Rewrite(const ConjunctiveQuery& target_query,
                                        const ExecutionOptions& options) const {
  MAPINV_RETURN_NOT_OK(target_query.Validate(*target_));
  return RewriteAgainstRules(skolemized_, target_query, options);
}

Result<UnionCq> RewriteOverSourceSO(const SOTgdMapping& mapping,
                                    const ConjunctiveQuery& target_query,
                                    const ExecutionOptions& options) {
  MAPINV_RETURN_NOT_OK(mapping.Validate());
  MAPINV_RETURN_NOT_OK(target_query.Validate(*mapping.target));
  return RewriteAgainstRules(mapping.so, target_query, options);
}

namespace {

Result<UnionCq> RewriteAgainstRules(const SOTgd& skolemized,
                                    const ConjunctiveQuery& target_query,
                                    const ExecutionOptions& options) {
  ScopedTraceSpan span(options, "rewrite");
  MAPINV_FAILPOINT(fp_rewrite_entry);
  // Candidate head choices per query atom.
  std::vector<std::vector<HeadChoice>> choices(target_query.atoms.size());
  for (size_t i = 0; i < target_query.atoms.size(); ++i) {
    for (const SORule& rule : skolemized.rules) {
      for (size_t c = 0; c < rule.conclusion.size(); ++c) {
        if (rule.conclusion[c].relation == target_query.atoms[i].relation) {
          choices[i].push_back(HeadChoice{&rule, c});
        }
      }
    }
    if (choices[i].empty()) {
      // Some query atom can never be produced: the rewriting is empty.
      UnionCq empty;
      empty.name = target_query.name;
      empty.head = target_query.head;
      return empty;
    }
  }

  UnionCq out;
  out.name = target_query.name;
  out.head = target_query.head;

  // Enumerate all choice combinations with backtracking. Renaming draws
  // from the options' symbol scope so rewritings are reproducible under an
  // engine-scoped context. The deadline is the one carried by an enclosing
  // pipeline stage when there is one (Invert's rewriting loop shares a
  // single budget with the other stages), else resolved here.
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  FreshVarGen gen("r", &ResolveSymbols(options, target_query.atoms));
  size_t produced = 0;

  std::function<Status(size_t, std::vector<std::pair<Term, Term>>,
                       std::vector<Atom>)>
      recurse = [&](size_t i, std::vector<std::pair<Term, Term>> goals,
                    std::vector<Atom> premises) -> Status {
    MAPINV_RETURN_NOT_OK(PollPhaseInterrupt(options, deadline, "rewrite"));
    if (i == target_query.atoms.size()) {
      MAPINV_FAILPOINT(fp_rewrite_disjunct);
      if (++produced > options.max_disjuncts) {
        return PhaseExhausted("rewrite",
                              "exceeded max_disjuncts = " +
                                  std::to_string(options.max_disjuncts));
      }
      auto unified = Unify(goals);
      if (!unified.ok()) return Status::OK();  // clash: prune combination
      const Substitution& sigma = *unified;

      // Resolve head variables; drop the disjunct if any resolves to a
      // Skolem term.
      std::vector<Term> head_terms;
      head_terms.reserve(target_query.head.size());
      for (VarId h : target_query.head) {
        Term t = sigma.Resolve(h);
        if (t.is_function()) return Status::OK();  // invented value
        head_terms.push_back(t);
      }
      // A premise variable resolving to a Skolem term would require a source
      // value to coincide with an invented null — unsatisfiable over the
      // universal instance, so the whole combination is pruned.
      std::vector<Atom> resolved_premises;
      resolved_premises.reserve(premises.size());
      for (const Atom& premise_atom : premises) {
        Atom resolved = sigma.Apply(premise_atom);
        for (const Term& t : resolved.terms) {
          if (t.is_function()) return Status::OK();  // prune
        }
        resolved_premises.push_back(std::move(resolved));
      }

      // Representative head variable per resolved term.
      std::map<Term, VarId> rep;
      std::vector<VarPair> equalities;
      Substitution to_head;
      for (size_t j = 0; j < head_terms.size(); ++j) {
        VarId hj = target_query.head[j];
        auto [it, inserted] = rep.emplace(head_terms[j], hj);
        if (inserted) {
          // First head variable to resolve to this term: rename the body
          // occurrences of the term's variable to the head variable (skip
          // the degenerate self-binding).
          if (head_terms[j].var() != hj) {
            to_head.Bind(head_terms[j].var(), Term::Var(hj));
          }
        } else if (it->second != hj) {
          equalities.emplace_back(it->second, hj);
        }
      }

      CqDisjunct disjunct;
      disjunct.equalities = std::move(equalities);
      for (Atom& resolved : resolved_premises) {
        for (Term& t : resolved.terms) t = to_head.Apply(t);
        disjunct.atoms.push_back(std::move(resolved));
      }
      out.disjuncts.push_back(std::move(disjunct));
      return Status::OK();
    }

    for (const HeadChoice& choice : choices[i]) {
      // Rename the rule apart for this use.
      Substitution renaming =
          RenameApart(choice.rule->PremiseVars(), &gen);
      Atom head = renaming.Apply(choice.rule->conclusion[choice.conclusion_index]);
      std::vector<std::pair<Term, Term>> new_goals = goals;
      for (size_t p = 0; p < head.terms.size(); ++p) {
        new_goals.emplace_back(target_query.atoms[i].terms[p], head.terms[p]);
      }
      std::vector<Atom> new_premises = premises;
      for (const Atom& pa : choice.rule->premise) {
        new_premises.push_back(renaming.Apply(pa));
      }
      MAPINV_RETURN_NOT_OK(recurse(i + 1, std::move(new_goals),
                                   std::move(new_premises)));
    }
    return Status::OK();
  };

  // In kPartial mode exhaustion keeps the disjuncts completed so far: a
  // disjunct subset of the union is a sound under-approximation for
  // certain-answer rewriting. NOTE this is exactly the degradation
  // MaximumRecovery must not consume — it forces kFail on its inner
  // rewritings and drops the whole dependency instead (a truncated rewriting
  // as a reverse-dependency disjunct set would *strengthen* the dependency).
  if (Status rec = recurse(0, {}, {}); !rec.ok()) {
    if (!DegradeToPartial(options, rec)) return rec;
  }

  if (options.minimize) {
    ExecutionOptions inner = options;
    inner.deadline = &deadline;
    return MinimizeUnionCq(out, inner);
  }
  return out;
}

}  // namespace

}  // namespace mapinv
