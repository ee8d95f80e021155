#include "inversion/polyso.h"

#include <map>
#include <set>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
#include "rewrite/skolemize.h"

namespace mapinv {

namespace {
FailPoint fp_polyso_entry("polyso/entry");
FailPoint fp_polyso_rule("polyso/rule");
}  // namespace

std::vector<VarId> CreateTuple(const std::vector<Term>& terms,
                               FreshVarGen* gen) {
  std::map<Term, VarId> seen;
  std::vector<VarId> out;
  out.reserve(terms.size());
  for (const Term& t : terms) {
    auto [it, inserted] = seen.emplace(t, 0);
    if (inserted) it->second = gen->Next();
    out.push_back(it->second);
  }
  return out;
}

Result<InverseFunctions> MakeInverseFunctions(const SOTgd& so) {
  MAPINV_ASSIGN_OR_RETURN(auto functions, so.Functions());
  InverseFunctions inv;
  for (const auto& [fn, arity] : functions) {
    std::vector<FunctionId> components;
    components.reserve(arity);
    for (uint32_t j = 1; j <= arity; ++j) {
      components.push_back(
          InternFunction(FunctionName(fn) + "#" + std::to_string(j)));
    }
    inv.inverse_of.emplace(fn, std::move(components));
  }
  // '#' cannot appear in parsed function names, so "fstar#" never collides
  // with a symbol of λ.
  inv.f_star = InternFunction("fstar#");
  return inv;
}

Result<std::vector<TermEq>> EnsureInv(const InverseFunctions& inv,
                                      const std::vector<VarId>& u,
                                      const std::vector<Term>& s) {
  if (u.size() != s.size()) {
    return Status::InvalidArgument("EnsureInv: tuple length mismatch");
  }
  std::vector<TermEq> out;
  auto push_unique = [&out](TermEq eq) {
    for (const TermEq& e : out) {
      if (e == eq) return;
    }
    out.push_back(std::move(eq));
  };
  for (size_t i = 0; i < s.size(); ++i) {
    Term ui = Term::Var(u[i]);
    if (s[i].is_variable()) {
      push_unique(TermEq{ui, s[i]});
    } else if (s[i].is_function()) {
      auto it = inv.inverse_of.find(s[i].fn());
      if (it == inv.inverse_of.end() ||
          it->second.size() != s[i].args().size()) {
        return Status::Internal("EnsureInv: unknown function " +
                                s[i].ToString());
      }
      for (size_t j = 0; j < s[i].args().size(); ++j) {
        push_unique(TermEq{Term::Fn(it->second[j], {ui}), s[i].args()[j]});
      }
    } else {
      return Status::Malformed("EnsureInv: constant term " + s[i].ToString());
    }
  }
  return out;
}

Result<SafeFormula> Safe(const InverseFunctions& inv,
                         const std::vector<VarId>& u,
                         const std::vector<Term>& s) {
  if (u.size() != s.size()) {
    return Status::InvalidArgument("Safe: tuple length mismatch");
  }
  SafeFormula out;
  auto push_unique = [](std::vector<TermEq>* vec, TermEq eq) {
    for (const TermEq& e : *vec) {
      if (e == eq) return;
    }
    vec->push_back(std::move(eq));
  };
  for (size_t i = 0; i < s.size(); ++i) {
    if (!s[i].is_function()) continue;
    auto it = inv.inverse_of.find(s[i].fn());
    if (it == inv.inverse_of.end()) {
      return Status::Internal("Safe: unknown function " + s[i].ToString());
    }
    Term ui = Term::Var(u[i]);
    Term star = Term::Fn(inv.f_star, {ui});
    push_unique(&out.equalities,
                TermEq{star, Term::Fn(it->second[0], {ui})});
    for (const auto& [g, g_components] : inv.inverse_of) {
      if (g == s[i].fn()) continue;
      push_unique(&out.inequalities,
                  TermEq{star, Term::Fn(g_components[0], {ui})});
    }
  }
  return out;
}

bool Subsumes(const std::vector<Term>& s, const std::vector<Term>& t) {
  if (s.size() != t.size()) return false;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].is_variable() && !s[i].is_variable()) return false;
  }
  return true;
}

namespace {

// Canonical key of an inverse rule: premise variables renamed positionally
// so that two rules differing only in fresh ū names (e.g. produced by two
// source rules with the same conclusion shape) compare equal.
std::string CanonicalRuleKey(const SOInverseRule& rule) {
  std::unordered_map<VarId, VarId> renaming;
  uint32_t next = 0;
  auto canon = [&](VarId v) {
    auto [it, inserted] = renaming.emplace(v, 0);
    if (inserted) it->second = InternVar("?c" + std::to_string(next++));
    return it->second;
  };
  std::function<Term(const Term&)> map_term = [&](const Term& t) -> Term {
    switch (t.kind()) {
      case Term::Kind::kVariable:
        return Term::Var(canon(t.var()));
      case Term::Kind::kConstant:
        return t;
      case Term::Kind::kFunction: {
        std::vector<Term> args;
        for (const Term& a : t.args()) args.push_back(map_term(a));
        return Term::Fn(t.fn(), std::move(args));
      }
    }
    return t;
  };
  SOInverseRule copy = rule;
  for (Term& t : copy.premise.terms) t = map_term(t);
  for (VarId& v : copy.constant_vars) v = canon(v);
  for (SOInvDisjunct& d : copy.disjuncts) {
    for (Atom& a : d.atoms) {
      for (Term& t : a.terms) t = map_term(t);
    }
    for (TermEq& eq : d.equalities) {
      eq.lhs = map_term(eq.lhs);
      eq.rhs = map_term(eq.rhs);
    }
    for (TermEq& ne : d.inequalities) {
      ne.lhs = map_term(ne.lhs);
      ne.rhs = map_term(ne.rhs);
    }
  }
  return copy.ToString();
}

// Step 2 of the algorithm: one conclusion atom per rule.
std::vector<SORule> Normalize(const SOTgd& so) {
  std::vector<SORule> out;
  for (const SORule& rule : so.rules) {
    for (const Atom& atom : rule.conclusion) {
      SORule r;
      r.premise = rule.premise;
      r.conclusion = {atom};
      out.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace

Result<SOInverseMapping> PolySOInverse(const SOTgdMapping& mapping,
                                       const ExecutionOptions& options) {
  MAPINV_RETURN_NOT_OK(mapping.Validate());
  ScopedTraceSpan span(options, "polyso_inverse");
  MAPINV_FAILPOINT(fp_polyso_entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  MAPINV_ASSIGN_OR_RETURN(InverseFunctions inv,
                          MakeInverseFunctions(mapping.so));

  std::vector<SORule> normalized = Normalize(mapping.so);

  SOInverseMapping out;
  out.source = mapping.target;
  out.target = mapping.source;

  FreshVarGen gen("u", &ResolveSymbols(options, mapping.so));
  std::set<std::string> emitted;  // canonical dedup of output rules
  // kPartial degrades at whole-rule granularity: an inverse rule missing
  // disjuncts would be unsound (fewer disjuncts = fewer worlds = a stronger
  // claim), so exhaustion mid-rule discards the torn rule and returns the
  // complete ones.
  for (const SORule& sigma : normalized) {
    // The saturation is quadratic in the normalised rule count (every rule
    // pairs with every subsuming rule); poll the budget per outer rule.
    if (Status poll =
            PollPhaseInterrupt(options, deadline, "polyso_inverse");
        !poll.ok()) {
      if (DegradeToPartial(options, poll)) break;
      return poll;
    }
    MAPINV_FAILPOINT(fp_polyso_rule);
    const Atom& head = sigma.conclusion[0];
    std::vector<VarId> u = CreateTuple(head.terms, &gen);

    SOInverseRule rule;
    rule.premise.relation = head.relation;
    rule.premise.terms.reserve(u.size());
    for (VarId v : u) rule.premise.terms.push_back(Term::Var(v));
    // C(u_i) for positions whose original term is a variable; dedup repeats.
    std::unordered_set<VarId> added_constants;
    for (size_t i = 0; i < head.terms.size(); ++i) {
      if (head.terms[i].is_variable() && added_constants.insert(u[i]).second) {
        rule.constant_vars.push_back(u[i]);
      }
    }

    Status inner_status;
    for (const SORule& other : normalized) {
      if (CancelRequested(options)) {
        inner_status = PhaseCancelled("polyso_inverse");
        break;
      }
      if (deadline.Expired()) {
        inner_status =
            PhaseExhausted("polyso_inverse",
                           "exceeded deadline_ms = " +
                               std::to_string(options.deadline_ms) +
                               " during subsumption pairing");
        break;
      }
      const Atom& other_head = other.conclusion[0];
      if (other_head.relation != head.relation) continue;
      if (!Subsumes(other_head.terms, head.terms)) continue;
      MAPINV_ASSIGN_OR_RETURN(std::vector<TermEq> q_e,
                              EnsureInv(inv, u, other_head.terms));
      MAPINV_ASSIGN_OR_RETURN(SafeFormula q_s,
                              Safe(inv, u, other_head.terms));
      SOInvDisjunct disjunct;
      disjunct.atoms = other.premise;
      disjunct.equalities = std::move(q_e);
      disjunct.equalities.insert(disjunct.equalities.end(),
                                 q_s.equalities.begin(), q_s.equalities.end());
      disjunct.inequalities = std::move(q_s.inequalities);
      rule.disjuncts.push_back(std::move(disjunct));
    }
    if (!inner_status.ok()) {
      // The current rule is torn (missing disjuncts); never emit it.
      if (DegradeToPartial(options, inner_status)) break;
      return inner_status;
    }
    if (rule.disjuncts.empty()) {
      return Status::Internal(
          "PolySOInverse: no subsuming rule for its own head — "
          "self-subsumption must always hold");
    }
    if (emitted.insert(CanonicalRuleKey(rule)).second) {
      if (out.inverse.rules.size() >= options.max_rules) {
        Status exhausted =
            PhaseExhausted("polyso_inverse",
                           "exceeded max_rules = " +
                               std::to_string(options.max_rules));
        if (DegradeToPartial(options, exhausted)) break;
        return exhausted;
      }
      out.inverse.rules.push_back(std::move(rule));
    }
  }
  return out;
}

Result<SOInverseMapping> PolySOInverseOfTgds(const TgdMapping& mapping,
                                             const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(SOTgdMapping so,
                          TgdsToPlainSOTgd(mapping, options.symbols));
  return PolySOInverse(so, options);
}

}  // namespace mapinv
