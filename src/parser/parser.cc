#include "parser/parser.h"

#include <map>
#include <memory>
#include <unordered_set>

#include "parser/lexer.h"

namespace mapinv {

namespace {

// Interns a parsed variable name. For '?'-prefixed (machine-generated)
// names, bumps the fresh-variable counter past the numeric suffix so that
// re-parsing printed output can never collide with variables generated
// later in the process.
VarId InternParsedVar(const std::string& name) {
  if (std::optional<uint64_t> ordinal = GeneratedVarOrdinal(name)) {
    FreshVarGen::BumpPast(*ordinal);
  }
  return InternVar(name);
}

// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  bool At(TokenKind kind) const { return Peek().kind == kind; }

  const Token& Advance() { return tokens_[pos_++]; }

  bool Accept(TokenKind kind) {
    if (At(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(TokenKind kind, const char* what) {
    if (Accept(kind)) return Status::OK();
    return Error(std::string("expected ") + what + ", found " +
                 Peek().Describe());
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at line " +
                              std::to_string(Peek().line));
  }

  void SkipSeparators() {
    while (At(TokenKind::kSeparator)) ++pos_;
  }

  bool AtEnd() const { return At(TokenKind::kEnd); }

  // term := IDENT | IDENT '(' term, ... ')' | NUMBER | STRING
  Result<Term> ParseTerm(bool allow_functions) {
    if (At(TokenKind::kNumber) || At(TokenKind::kString)) {
      return Term::Const(Value::MakeConstant(Advance().text));
    }
    if (!At(TokenKind::kIdent)) {
      return Error("expected a term, found " + Peek().Describe());
    }
    std::string name = Advance().text;
    if (At(TokenKind::kLParen)) {
      if (!allow_functions) {
        return Error("function term '" + name +
                     "(...)' not allowed in this context");
      }
      Advance();  // '('
      std::vector<Term> args;
      if (!At(TokenKind::kRParen)) {
        while (true) {
          MAPINV_ASSIGN_OR_RETURN(Term arg, ParseTerm(allow_functions));
          args.push_back(std::move(arg));
          if (!Accept(TokenKind::kComma)) break;
        }
      }
      MAPINV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      return Term::Fn(name, std::move(args));
    }
    return Term::Var(InternParsedVar(name));
  }

  // atom := IDENT '(' term, ... ')'
  Result<Atom> ParseAtom(bool allow_functions) {
    if (!At(TokenKind::kIdent)) {
      return Error("expected a relation name, found " + Peek().Describe());
    }
    if (Peek().text == "C") {
      return Error(
          "'C' is reserved for the constant predicate and is only allowed "
          "in reverse-dependency premises");
    }
    std::string relation = Advance().text;
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    std::vector<Term> terms;
    if (!At(TokenKind::kRParen)) {
      while (true) {
        MAPINV_ASSIGN_OR_RETURN(Term t, ParseTerm(allow_functions));
        terms.push_back(std::move(t));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    return Atom(relation, std::move(terms));
  }

  // "EXISTS x, y ." — returns the declared variables (unused beyond
  // documentation: existentials are recognised structurally).
  Result<std::vector<VarId>> MaybeParseExists() {
    std::vector<VarId> vars;
    if (At(TokenKind::kIdent) && Peek().text == "EXISTS") {
      Advance();
      while (true) {
        if (!At(TokenKind::kIdent)) {
          return Error("expected a variable after EXISTS");
        }
        vars.push_back(InternParsedVar(Advance().text));
        if (!Accept(TokenKind::kComma)) break;
      }
      MAPINV_RETURN_NOT_OK(Expect(TokenKind::kDot, "'.' after EXISTS prefix"));
    }
    return vars;
  }

  struct PremiseItems {
    std::vector<Atom> atoms;
    std::vector<VarId> constant_vars;
    std::vector<VarPair> inequalities;
  };

  // premise := ( atom | C(x) | x != y ) , ...   — C is reserved.
  Result<PremiseItems> ParsePremise(bool allow_constraints) {
    PremiseItems out;
    while (true) {
      if (At(TokenKind::kIdent) && Peek().text == "C" && allow_constraints &&
          tokens_[pos_ + 1].kind == TokenKind::kLParen) {
        Advance();
        Advance();
        if (!At(TokenKind::kIdent)) {
          return Error("expected a variable inside C(...)");
        }
        out.constant_vars.push_back(InternParsedVar(Advance().text));
        MAPINV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      } else if (At(TokenKind::kIdent) &&
                 tokens_[pos_ + 1].kind == TokenKind::kNeq) {
        if (!allow_constraints) {
          return Error("'!=' not allowed in this context");
        }
        VarId lhs = InternParsedVar(Advance().text);
        Advance();  // !=
        if (!At(TokenKind::kIdent)) {
          return Error("expected a variable after '!='");
        }
        out.inequalities.emplace_back(lhs, InternParsedVar(Advance().text));
      } else {
        MAPINV_ASSIGN_OR_RETURN(Atom a, ParseAtom(/*allow_functions=*/false));
        out.atoms.push_back(std::move(a));
      }
      if (!Accept(TokenKind::kComma)) break;
    }
    return out;
  }

  // disjunct := [EXISTS ... .] ( atom | x = y | x != y ) , ...
  // Inequalities are only legal in query disjuncts (UCQ≠), not in
  // reverse-dependency conclusions.
  Result<ReverseDisjunct> ParseDisjunct(bool allow_inequalities) {
    ReverseDisjunct out;
    MAPINV_ASSIGN_OR_RETURN(std::vector<VarId> declared, MaybeParseExists());
    (void)declared;
    while (true) {
      if (At(TokenKind::kIdent) && tokens_[pos_ + 1].kind == TokenKind::kEq) {
        VarId lhs = InternParsedVar(Advance().text);
        Advance();  // =
        if (!At(TokenKind::kIdent)) {
          return Error("expected a variable after '='");
        }
        out.equalities.emplace_back(lhs, InternParsedVar(Advance().text));
      } else if (At(TokenKind::kIdent) &&
                 tokens_[pos_ + 1].kind == TokenKind::kNeq) {
        if (!allow_inequalities) {
          return Error(
              "'!=' is not allowed in reverse-dependency conclusions");
        }
        VarId lhs = InternParsedVar(Advance().text);
        Advance();  // !=
        if (!At(TokenKind::kIdent)) {
          return Error("expected a variable after '!='");
        }
        out.inequalities.emplace_back(lhs, InternParsedVar(Advance().text));
      } else {
        MAPINV_ASSIGN_OR_RETURN(Atom a, ParseAtom(/*allow_functions=*/false));
        out.atoms.push_back(std::move(a));
      }
      if (!Accept(TokenKind::kComma)) break;
    }
    return out;
  }

  Result<Tgd> ParseTgd() {
    MAPINV_ASSIGN_OR_RETURN(PremiseItems premise,
                            ParsePremise(/*allow_constraints=*/false));
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kArrow, "'->'"));
    MAPINV_ASSIGN_OR_RETURN(std::vector<VarId> declared, MaybeParseExists());
    (void)declared;
    Tgd out;
    out.premise = std::move(premise.atoms);
    while (true) {
      MAPINV_ASSIGN_OR_RETURN(Atom a, ParseAtom(/*allow_functions=*/false));
      out.conclusion.push_back(std::move(a));
      if (!Accept(TokenKind::kComma)) break;
    }
    return out;
  }

  Result<ReverseDependency> ParseReverseDep() {
    MAPINV_ASSIGN_OR_RETURN(PremiseItems premise,
                            ParsePremise(/*allow_constraints=*/true));
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kArrow, "'->'"));
    ReverseDependency out;
    out.premise = std::move(premise.atoms);
    out.constant_vars = std::move(premise.constant_vars);
    out.inequalities = std::move(premise.inequalities);
    while (true) {
      MAPINV_ASSIGN_OR_RETURN(ReverseDisjunct d, ParseDisjunct(/*allow_inequalities=*/false));
      out.disjuncts.push_back(std::move(d));
      if (!Accept(TokenKind::kPipe)) break;
    }
    return out;
  }

  Result<SORule> ParseSORule() {
    MAPINV_ASSIGN_OR_RETURN(PremiseItems premise,
                            ParsePremise(/*allow_constraints=*/false));
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kArrow, "'->'"));
    SORule out;
    out.premise = std::move(premise.atoms);
    while (true) {
      MAPINV_ASSIGN_OR_RETURN(Atom a, ParseAtom(/*allow_functions=*/true));
      out.conclusion.push_back(std::move(a));
      if (!Accept(TokenKind::kComma)) break;
    }
    return out;
  }

  Result<UnionCq> ParseUnionCq() {
    if (!At(TokenKind::kIdent)) {
      return Error("expected a query name");
    }
    UnionCq out;
    out.name = Advance().text;
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    if (!At(TokenKind::kRParen)) {
      while (true) {
        if (!At(TokenKind::kIdent)) {
          return Error("expected a head variable");
        }
        out.head.push_back(InternParsedVar(Advance().text));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kTurnstile, "':-'"));
    while (true) {
      MAPINV_ASSIGN_OR_RETURN(ReverseDisjunct d, ParseDisjunct(/*allow_inequalities=*/true));
      CqDisjunct cd;
      cd.atoms = std::move(d.atoms);
      cd.equalities = std::move(d.equalities);
      cd.inequalities = std::move(d.inequalities);
      out.disjuncts.push_back(std::move(cd));
      if (!Accept(TokenKind::kPipe)) break;
    }
    return out;
  }

  // fact := Rel '(' const, ... ')'; identifiers are constant spellings,
  // except _N<digits> which denotes a labelled null.
  Result<std::pair<std::string, Tuple>> ParseFact() {
    if (!At(TokenKind::kIdent)) {
      return Error("expected a relation name in fact");
    }
    std::string relation = Advance().text;
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    Tuple tuple;
    if (!At(TokenKind::kRParen)) {
      while (true) {
        if (At(TokenKind::kNumber) || At(TokenKind::kString)) {
          tuple.push_back(Value::MakeConstant(Advance().text));
        } else if (At(TokenKind::kIdent)) {
          std::string text = Advance().text;
          if (text.size() > 2 && text[0] == '_' && text[1] == 'N') {
            bool digits = true;
            for (size_t k = 2; k < text.size(); ++k) {
              if (!isdigit(static_cast<unsigned char>(text[k]))) {
                digits = false;
              }
            }
            if (digits) {
              tuple.push_back(Value::NullWithLabel(
                  static_cast<uint32_t>(std::stoul(text.substr(2)))));
              if (!Accept(TokenKind::kComma)) break;
              continue;
            }
          }
          tuple.push_back(Value::MakeConstant(text));
        } else {
          return Error("expected a constant, found " + Peek().Describe());
        }
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    MAPINV_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
    return std::make_pair(std::move(relation), std::move(tuple));
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// Adds each atom's relation/arity to `schema`, failing on arity clashes.
Status InferInto(Schema* schema, const std::vector<Atom>& atoms) {
  for (const Atom& a : atoms) {
    MAPINV_ASSIGN_OR_RETURN(
        RelationId id,
        schema->AddRelation(RelationText(a.relation),
                            static_cast<uint32_t>(a.terms.size())));
    (void)id;
  }
  return Status::OK();
}

Status CheckDisjointSides(const Schema& source, const Schema& target) {
  if (!source.DisjointFrom(target)) {
    return Status::ParseError(
        "a relation is used on both sides of the mapping; premise and "
        "conclusion schemas must be disjoint");
  }
  return Status::OK();
}

}  // namespace

Result<TgdMapping> ParseTgdMapping(std::string_view text) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  Schema source, target;
  std::vector<Tgd> tgds;
  parser.SkipSeparators();
  while (!parser.AtEnd()) {
    MAPINV_ASSIGN_OR_RETURN(Tgd tgd, parser.ParseTgd());
    MAPINV_RETURN_NOT_OK(InferInto(&source, tgd.premise));
    MAPINV_RETURN_NOT_OK(InferInto(&target, tgd.conclusion));
    tgds.push_back(std::move(tgd));
    parser.SkipSeparators();
  }
  MAPINV_RETURN_NOT_OK(CheckDisjointSides(source, target));
  TgdMapping out(std::move(source), std::move(target), std::move(tgds));
  MAPINV_RETURN_NOT_OK(out.Validate());
  return out;
}

Result<ReverseMapping> ParseReverseMapping(std::string_view text) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  Schema source, target;
  std::vector<ReverseDependency> deps;
  parser.SkipSeparators();
  while (!parser.AtEnd()) {
    MAPINV_ASSIGN_OR_RETURN(ReverseDependency dep, parser.ParseReverseDep());
    MAPINV_RETURN_NOT_OK(InferInto(&source, dep.premise));
    for (const ReverseDisjunct& d : dep.disjuncts) {
      MAPINV_RETURN_NOT_OK(InferInto(&target, d.atoms));
    }
    deps.push_back(std::move(dep));
    parser.SkipSeparators();
  }
  MAPINV_RETURN_NOT_OK(CheckDisjointSides(source, target));
  ReverseMapping out(std::make_shared<const Schema>(std::move(source)),
                     std::make_shared<const Schema>(std::move(target)),
                     std::move(deps));
  MAPINV_RETURN_NOT_OK(out.Validate());
  return out;
}

Result<SOTgdMapping> ParseSOTgdMapping(std::string_view text) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  Schema source, target;
  SOTgd so;
  parser.SkipSeparators();
  while (!parser.AtEnd()) {
    MAPINV_ASSIGN_OR_RETURN(SORule rule, parser.ParseSORule());
    MAPINV_RETURN_NOT_OK(InferInto(&source, rule.premise));
    MAPINV_RETURN_NOT_OK(InferInto(&target, rule.conclusion));
    so.rules.push_back(std::move(rule));
    parser.SkipSeparators();
  }
  MAPINV_RETURN_NOT_OK(CheckDisjointSides(source, target));
  SOTgdMapping out(std::make_shared<const Schema>(std::move(source)),
                   std::make_shared<const Schema>(std::move(target)),
                   std::move(so));
  MAPINV_RETURN_NOT_OK(out.Validate());
  return out;
}

Result<UnionCq> ParseQuery(std::string_view text) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  parser.SkipSeparators();
  MAPINV_ASSIGN_OR_RETURN(UnionCq out, parser.ParseUnionCq());
  parser.SkipSeparators();
  if (!parser.AtEnd()) {
    return Status::ParseError("trailing input after query");
  }
  return out;
}

Result<ConjunctiveQuery> ParseCq(std::string_view text) {
  MAPINV_ASSIGN_OR_RETURN(UnionCq u, ParseQuery(text));
  // Inequalities must be rejected, not dropped: silently discarding them
  // would accept "Q(x,y) :- R != y" as the unrenderable empty-body query.
  if (u.disjuncts.size() != 1 || !u.disjuncts[0].equalities.empty() ||
      !u.disjuncts[0].inequalities.empty()) {
    return Status::ParseError(
        "expected a single equality- and inequality-free conjunctive query");
  }
  ConjunctiveQuery out;
  out.name = u.name;
  out.head = u.head;
  out.atoms = u.disjuncts[0].atoms;
  return out;
}

namespace {

Result<Instance> ParseInstanceImpl(std::string_view text,
                                   const Schema* fixed_schema) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  parser.SkipSeparators();
  MAPINV_RETURN_NOT_OK(parser.Expect(TokenKind::kLBrace, "'{'"));
  std::vector<std::pair<std::string, Tuple>> facts;
  parser.SkipSeparators();
  if (!parser.At(TokenKind::kRBrace)) {
    while (true) {
      parser.SkipSeparators();
      MAPINV_ASSIGN_OR_RETURN(auto fact, parser.ParseFact());
      facts.push_back(std::move(fact));
      parser.SkipSeparators();
      if (!parser.Accept(TokenKind::kComma)) break;
    }
  }
  parser.SkipSeparators();
  MAPINV_RETURN_NOT_OK(parser.Expect(TokenKind::kRBrace, "'}'"));

  Schema inferred;
  const Schema* schema = fixed_schema;
  if (schema == nullptr) {
    for (const auto& [relation, tuple] : facts) {
      MAPINV_ASSIGN_OR_RETURN(
          RelationId id,
          inferred.AddRelation(relation,
                               static_cast<uint32_t>(tuple.size())));
      (void)id;
    }
    schema = &inferred;
  }
  Instance out(*schema);
  for (auto& [relation, tuple] : facts) {
    MAPINV_ASSIGN_OR_RETURN(bool added, out.Add(relation, std::move(tuple)));
    (void)added;
  }
  return out;
}

}  // namespace

Result<Instance> ParseInstance(std::string_view text, const Schema& schema) {
  return ParseInstanceImpl(text, &schema);
}

Result<Instance> ParseInstanceInferSchema(std::string_view text) {
  return ParseInstanceImpl(text, nullptr);
}

}  // namespace mapinv
