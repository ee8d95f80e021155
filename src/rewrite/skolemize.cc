#include "rewrite/skolemize.h"

#include <unordered_map>

namespace mapinv {

SOTgd SkolemizeTgds(const std::vector<Tgd>& tgds, SkolemArgs args,
                    SymbolContext* symbols) {
  SOTgd out;
  FreshFunctionGen gen("sk", symbols);
  for (const Tgd& tgd : tgds) {
    std::vector<VarId> arg_vars = (args == SkolemArgs::kAllPremiseVars)
                                      ? tgd.PremiseVars()
                                      : tgd.FrontierVars();
    std::vector<Term> arg_terms;
    arg_terms.reserve(arg_vars.size());
    for (VarId v : arg_vars) arg_terms.push_back(Term::Var(v));

    std::unordered_map<VarId, Term> skolems;
    for (VarId y : tgd.ExistentialVars()) {
      skolems.emplace(y, Term::Fn(gen.Next(), arg_terms));
    }

    SORule rule;
    rule.premise = tgd.premise;
    rule.conclusion.reserve(tgd.conclusion.size());
    for (const Atom& atom : tgd.conclusion) {
      Atom a;
      a.relation = atom.relation;
      a.terms.reserve(atom.terms.size());
      for (const Term& t : atom.terms) {
        auto it = skolems.find(t.var());
        a.terms.push_back(it == skolems.end() ? t : it->second);
      }
      rule.conclusion.push_back(std::move(a));
    }
    out.rules.push_back(std::move(rule));
  }
  return out;
}

Result<SOTgdMapping> TgdsToPlainSOTgd(const TgdMapping& mapping,
                                      SymbolContext* symbols) {
  MAPINV_RETURN_NOT_OK(mapping.Validate());
  // A tgd with an empty frontier and an existential-only conclusion still
  // Skolemises fine: the Skolem functions take all premise variables, which
  // are never empty (premises are non-empty by validation).
  SOTgdMapping out;
  out.source = mapping.source;
  out.target = mapping.target;
  out.so = SkolemizeTgds(mapping.tgds, SkolemArgs::kAllPremiseVars, symbols);
  MAPINV_RETURN_NOT_OK(out.Validate());
  return out;
}

}  // namespace mapinv
