/// \file query_product.h
/// \brief The product of conjunctive queries (Section 4.1).
///
/// For n-ary CQs Q₁, Q₂ with shared free tuple x̄, the product Q₁ × Q₂ pairs
/// variables through a one-to-one function f with f(x, x) = x for x ∈ x̄ and
/// a fresh variable otherwise, and contains the atom
/// R(f(y₁,z₁), ..., f(y_m,z_m)) for every pair of same-relation atoms
/// R(ȳ) ∈ Q₁, R(z̄) ∈ Q₂. It generalises the Cartesian product of graphs
/// and is the ⊓ of the homomorphism lattice: Q₁ × Q₂ maps into both inputs,
/// and anything that maps into both maps into the product. This is what
/// makes EliminateDisjunctions CQ-equivalence preserving (Lemma 4.3).
///
/// The product may be empty (no common relation), and its set of free
/// variables may shrink to the x̄-variables it still mentions.

#ifndef MAPINV_INVERSION_QUERY_PRODUCT_H_
#define MAPINV_INVERSION_QUERY_PRODUCT_H_

#include <vector>

#include "base/status.h"
#include "logic/cq.h"

namespace mapinv {

/// \brief Computes Q₁ × Q₂ for equality-free disjuncts sharing the free
/// tuple `shared_free`. Returns the product's atoms (possibly empty). Fresh
/// variables ("?p<n>") come from `symbols` (the process-global context when
/// null).
std::vector<Atom> ProductOfDisjuncts(const std::vector<VarId>& shared_free,
                                     const std::vector<Atom>& q1,
                                     const std::vector<Atom>& q2,
                                     SymbolContext* symbols = nullptr);

/// \brief Left fold of ProductOfDisjuncts over β₁, ..., β_k (k ≥ 1).
/// Returns empty atoms if any intermediate product is empty.
std::vector<Atom> ProductOfMany(const std::vector<VarId>& shared_free,
                                const std::vector<std::vector<Atom>>& queries,
                                SymbolContext* symbols = nullptr);

}  // namespace mapinv

#endif  // MAPINV_INVERSION_QUERY_PRODUCT_H_
