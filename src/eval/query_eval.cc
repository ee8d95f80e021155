#include "eval/query_eval.h"

#include <algorithm>
#include <map>

namespace mapinv {

bool AnswerSet::Contains(const Tuple& t) const {
  return std::binary_search(tuples.begin(), tuples.end(), t);
}

bool AnswerSet::SubsetOf(const AnswerSet& other) const {
  return std::includes(other.tuples.begin(), other.tuples.end(),
                       tuples.begin(), tuples.end());
}

AnswerSet AnswerSet::CertainOnly() const {
  AnswerSet out;
  for (const Tuple& t : tuples) {
    bool null_free = std::all_of(t.begin(), t.end(), [](const Value& v) {
      return v.is_constant();
    });
    if (null_free) out.tuples.push_back(t);
  }
  return out;
}

AnswerSet AnswerSet::Intersect(const AnswerSet& other) const {
  AnswerSet out;
  std::set_intersection(tuples.begin(), tuples.end(), other.tuples.begin(),
                        other.tuples.end(), std::back_inserter(out.tuples));
  return out;
}

std::string AnswerSet::ToString() const {
  std::string out = "{ ";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ", ";
    out += "(";
    for (size_t j = 0; j < tuples[i].size(); ++j) {
      if (j > 0) out += ",";
      out += tuples[i][j].ToString();
    }
    out += ")";
  }
  out += " }";
  return out;
}

AnswerSet MakeAnswerSet(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return AnswerSet{std::move(tuples)};
}

Result<AnswerSet> EvaluateCq(const ConjunctiveQuery& query,
                             const Instance& instance, ExecStats* stats) {
  HomSearch search(instance);
  search.set_stats(stats);
  std::vector<Tuple> raw;
  MAPINV_RETURN_NOT_OK(search.ForEachHom(
      query.atoms, HomConstraints{}, Assignment{},
      [&](const Assignment& h) {
        Tuple t;
        t.reserve(query.head.size());
        for (VarId v : query.head) t.push_back(h.at(v));
        raw.push_back(std::move(t));
        return true;
      }));
  return MakeAnswerSet(std::move(raw));
}

Result<AnswerSet> EvaluateDisjunct(const std::vector<VarId>& head,
                                   const CqDisjunct& disjunct,
                                   const Instance& instance, ExecStats* stats) {
  // Merge equality classes of head variables: pick the first-mentioned head
  // variable of each class as representative and rewrite the atoms.
  std::map<VarId, VarId> rep;
  auto find = [&](VarId v) {
    VarId r = v;
    while (rep.contains(r) && rep[r] != r) r = rep[r];
    return r;
  };
  for (VarId h : head) {
    if (!rep.contains(h)) rep[h] = h;
  }
  for (const VarPair& eq : disjunct.equalities) {
    if (!rep.contains(eq.first)) rep[eq.first] = eq.first;
    if (!rep.contains(eq.second)) rep[eq.second] = eq.second;
    VarId a = find(eq.first);
    VarId b = find(eq.second);
    if (a != b) rep[std::max(a, b)] = std::min(a, b);
  }

  std::vector<Atom> atoms;
  atoms.reserve(disjunct.atoms.size());
  for (const Atom& a : disjunct.atoms) {
    Atom out;
    out.relation = a.relation;
    out.terms.reserve(a.terms.size());
    for (const Term& t : a.terms) {
      if (t.is_variable()) {
        out.terms.push_back(Term::Var(find(t.var())));
      } else {
        out.terms.push_back(t);
      }
    }
    atoms.push_back(std::move(out));
  }

  // Inequalities evaluate naively (two values are unequal iff they are
  // distinct, nulls included) — exact on null-free instances; see
  // query_eval.h for the certain-answer caveat on instances with nulls.
  HomConstraints constraints;
  for (const VarPair& ne : disjunct.inequalities) {
    constraints.inequalities.emplace_back(find(ne.first), find(ne.second));
  }

  HomSearch search(instance);
  search.set_stats(stats);
  std::vector<Tuple> raw;
  MAPINV_RETURN_NOT_OK(search.ForEachHom(
      atoms, constraints, Assignment{}, [&](const Assignment& h) {
        Tuple t;
        t.reserve(head.size());
        for (VarId v : head) {
          auto it = h.find(find(v));
          if (it == h.end()) return true;  // unsafe var: skip (validated away)
          t.push_back(it->second);
        }
        raw.push_back(std::move(t));
        return true;
      }));
  return MakeAnswerSet(std::move(raw));
}

Result<AnswerSet> EvaluateUnionCq(const UnionCq& query,
                                  const Instance& instance, ExecStats* stats) {
  std::vector<Tuple> raw;
  for (const CqDisjunct& d : query.disjuncts) {
    MAPINV_ASSIGN_OR_RETURN(AnswerSet part,
                            EvaluateDisjunct(query.head, d, instance, stats));
    raw.insert(raw.end(), part.tuples.begin(), part.tuples.end());
  }
  return MakeAnswerSet(std::move(raw));
}

Result<AnswerSet> CertainOverWorlds(const std::vector<Instance>& worlds,
                                    const ConjunctiveQuery& query,
                                    ExecStats* stats) {
  if (worlds.empty()) {
    return Status::Malformed("certain answers over an empty world set");
  }
  bool first = true;
  AnswerSet certain;
  for (const Instance& world : worlds) {
    MAPINV_ASSIGN_OR_RETURN(AnswerSet answers,
                            EvaluateCq(query, world, stats));
    AnswerSet c = answers.CertainOnly();
    if (first) {
      certain = std::move(c);
      first = false;
    } else {
      certain = certain.Intersect(c);
    }
  }
  return certain;
}

}  // namespace mapinv
