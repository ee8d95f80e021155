#include "inversion/query_product.h"

#include <map>
#include <unordered_set>
#include <utility>

namespace mapinv {

std::vector<Atom> ProductOfDisjuncts(const std::vector<VarId>& shared_free,
                                     const std::vector<Atom>& q1,
                                     const std::vector<Atom>& q2,
                                     SymbolContext* symbols) {
  std::unordered_set<VarId> free_set(shared_free.begin(), shared_free.end());
  std::map<std::pair<VarId, VarId>, VarId> pair_var;
  FreshVarGen gen("p", symbols);
  auto f = [&](VarId y, VarId z) -> VarId {
    if (y == z && free_set.contains(y)) return y;
    auto [it, inserted] = pair_var.emplace(std::make_pair(y, z), 0);
    if (inserted) it->second = gen.Next();
    return it->second;
  };

  std::vector<Atom> out;
  for (const Atom& a : q1) {
    for (const Atom& b : q2) {
      if (a.relation != b.relation || a.terms.size() != b.terms.size()) {
        continue;
      }
      Atom prod;
      prod.relation = a.relation;
      prod.terms.reserve(a.terms.size());
      for (size_t p = 0; p < a.terms.size(); ++p) {
        prod.terms.push_back(Term::Var(f(a.terms[p].var(), b.terms[p].var())));
      }
      out.push_back(std::move(prod));
    }
  }
  return out;
}

std::vector<Atom> ProductOfMany(const std::vector<VarId>& shared_free,
                                const std::vector<std::vector<Atom>>& queries,
                                SymbolContext* symbols) {
  if (queries.empty()) return {};
  std::vector<Atom> acc = queries[0];
  for (size_t i = 1; i < queries.size(); ++i) {
    if (acc.empty()) return {};
    acc = ProductOfDisjuncts(shared_free, acc, queries[i], symbols);
  }
  return acc;
}

}  // namespace mapinv
