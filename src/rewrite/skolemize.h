/// \file skolemize.h
/// \brief Skolemisation of tgds into plain SO-tgd rules.
///
/// Two variants are used in the library:
///  * kAllPremiseVars — the paper's linear-time translation of tgds into a
///    plain SO-tgd (Section 5.1): each existential variable y of a tgd
///    becomes f_y(x̄) over *all* premise variables, exactly as in the
///    Takes/Enrollment example (rule (6) → Takes(n,c) → Enrollment(f(n,c),c)).
///  * kFrontierVars — Skolem arguments restricted to the frontier (premise
///    variables that reach the conclusion). This is the semi-oblivious-chase
///    Skolemisation used by the rewriting engine: it identifies firings that
///    agree on the frontier, which is what makes unification-based rewriting
///    produce exactly the certain-answer rewriting.

#ifndef MAPINV_REWRITE_SKOLEMIZE_H_
#define MAPINV_REWRITE_SKOLEMIZE_H_

#include "base/status.h"
#include "logic/mapping.h"

namespace mapinv {

enum class SkolemArgs { kAllPremiseVars, kFrontierVars };

/// \brief Skolemises a set of tgds into plain SO-tgd rules. Skolem function
/// names are generated fresh ("sk%<n>") from `symbols` (the process-global
/// context when null); one function per (tgd, existential variable) pair.
SOTgd SkolemizeTgds(const std::vector<Tgd>& tgds, SkolemArgs args,
                    SymbolContext* symbols = nullptr);

/// \brief The paper's linear-time translation: tgds → plain SO-tgd mapping
/// (Section 5.1). Uses kAllPremiseVars; Skolem functions come from `symbols`
/// as in SkolemizeTgds.
Result<SOTgdMapping> TgdsToPlainSOTgd(const TgdMapping& mapping,
                                      SymbolContext* symbols = nullptr);

}  // namespace mapinv

#endif  // MAPINV_REWRITE_SKOLEMIZE_H_
