#include "inversion/compose.h"

#include <functional>

#include "engine/failpoint.h"
#include "engine/trace.h"
#include "logic/substitution.h"
#include "rewrite/skolemize.h"

namespace mapinv {

namespace {
FailPoint fp_compose_entry("compose/entry");
FailPoint fp_compose_rule("compose/rule");
}  // namespace

Result<SOTgdMapping> ComposeSOTgds(const SOTgdMapping& first,
                                   const SOTgdMapping& second,
                                   const ExecutionOptions& options) {
  MAPINV_RETURN_NOT_OK(first.Validate());
  MAPINV_RETURN_NOT_OK(second.Validate());
  // The middle schemas must agree on every relation second's premises use.
  for (const SORule& rule : second.so.rules) {
    for (const Atom& a : rule.premise) {
      RelationId id = first.target->Find(RelationText(a.relation));
      if (id == kInvalidRelation ||
          first.target->arity(id) != a.terms.size()) {
        return Status::InvalidArgument(
            "middle-schema mismatch: relation " +
            std::string(RelationText(a.relation)) +
            " of the second mapping's premise is not in the first mapping's "
            "target schema with matching arity");
      }
    }
  }

  // The two mappings quantify their function symbols independently; a
  // shared symbol would wrongly couple the interpretations in the unfolded
  // formula.
  MAPINV_ASSIGN_OR_RETURN(auto fns1, first.so.Functions());
  MAPINV_ASSIGN_OR_RETURN(auto fns2, second.so.Functions());
  for (const auto& [fn, arity] : fns1) {
    (void)arity;
    if (fns2.contains(fn)) {
      return Status::Unsupported(
          "function symbol " + FunctionName(fn) +
          " occurs in both mappings; rename one side before composing");
    }
  }

  ScopedTraceSpan span(options, "compose");
  MAPINV_FAILPOINT(fp_compose_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);

  SOTgdMapping out;
  out.source = first.source;
  out.target = second.target;

  // Unification binds every variable of `second` to a renamed-apart term
  // of `first`, so only fresh variables reach the output and no bump past
  // the inputs' spellings is needed.
  FreshVarGen gen("m", options.symbols);
  size_t produced = 0;

  // Composed rules are appended whole at the recursion leaves, so stopping
  // on exhaustion in kPartial mode returns a rule subset of the full
  // composition — a sound under-approximation (never a torn rule).
  for (const SORule& rule2 : second.so.rules) {
    // Resolve each premise atom of rule2 against conclusion atoms of rules
    // of `first`, in all combinations.
    std::vector<std::vector<std::pair<const SORule*, size_t>>> choices(
        rule2.premise.size());
    for (size_t i = 0; i < rule2.premise.size(); ++i) {
      for (const SORule& rule1 : first.so.rules) {
        for (size_t c = 0; c < rule1.conclusion.size(); ++c) {
          if (rule1.conclusion[c].relation == rule2.premise[i].relation) {
            choices[i].emplace_back(&rule1, c);
          }
        }
      }
      if (choices[i].empty()) {
        // This rule2 premise atom can never be produced by first: the rule
        // contributes nothing to the composition.
        break;
      }
    }
    bool feasible = true;
    for (const auto& c : choices) {
      if (c.empty()) feasible = false;
    }
    if (!feasible) continue;

    std::function<Status(size_t, std::vector<std::pair<Term, Term>>,
                         std::vector<Atom>)>
        recurse = [&](size_t i, std::vector<std::pair<Term, Term>> goals,
                      std::vector<Atom> premises) -> Status {
      MAPINV_RETURN_NOT_OK(PollPhaseInterrupt(options, deadline, "compose"));
      if (i == rule2.premise.size()) {
        auto unified = Unify(goals);
        if (!unified.ok()) return Status::OK();  // clash: prune combination
        MAPINV_FAILPOINT(fp_compose_rule);
        if (++produced > options.max_rules) {
          return PhaseExhausted("compose",
                                "exceeded max_rules = " +
                                    std::to_string(options.max_rules));
        }
        SORule composed;
        composed.premise = unified->Apply(premises);
        composed.conclusion = unified->Apply(rule2.conclusion);
        out.so.rules.push_back(std::move(composed));
        return Status::OK();
      }
      for (const auto& [rule1, c] : choices[i]) {
        // Rename rule1 apart for this use.
        Substitution renaming = RenameApart(rule1->PremiseVars(), &gen);
        Atom head = renaming.Apply(rule1->conclusion[c]);
        std::vector<std::pair<Term, Term>> new_goals = goals;
        for (size_t p = 0; p < head.terms.size(); ++p) {
          new_goals.emplace_back(rule2.premise[i].terms[p], head.terms[p]);
        }
        std::vector<Atom> new_premises = premises;
        for (const Atom& pa : rule1->premise) {
          new_premises.push_back(renaming.Apply(pa));
        }
        MAPINV_RETURN_NOT_OK(
            recurse(i + 1, std::move(new_goals), std::move(new_premises)));
      }
      return Status::OK();
    };
    if (Status rec = recurse(0, {}, {}); !rec.ok()) {
      if (DegradeToPartial(options, rec)) break;
      return rec;
    }
  }
  return out;
}

Result<SOTgdMapping> ComposeTgdMappings(const TgdMapping& first,
                                        const TgdMapping& second,
                                        const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(SOTgdMapping so1,
                          TgdsToPlainSOTgd(first, options.symbols));
  MAPINV_ASSIGN_OR_RETURN(SOTgdMapping so2,
                          TgdsToPlainSOTgd(second, options.symbols));
  return ComposeSOTgds(so1, so2, options);
}

}  // namespace mapinv
