#include "workloads.h"

#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "data/instance.h"
#include "engine/request.h"
#include "mapgen/generators.h"

namespace reqbench {
namespace {

using Rng = std::mt19937_64;

// Uniform integer in [lo, hi] — a fixed formula, so lists do not depend on
// the standard library's distribution implementation.
int Pick(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
}

// Balanced sampling: a deck holds every card in its exact proportion and is
// dealt whole, reshuffled by the seed each time it runs out. Any list is
// then within one deck of the nominal mix, so two seeds differ in which
// inputs they draw, not in how much of each kind of work they ask for.
class Deck {
 public:
  Deck(std::vector<int> cards, Rng* rng)
      : cards_(std::move(cards)), next_(cards_.size()), rng_(rng) {}

  int Deal() {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; --i) {
        const int j = Pick(*rng_, 0, static_cast<int>(i) - 1);
        std::swap(cards_[i - 1], cards_[j]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int> cards_;
  size_t next_;
  Rng* rng_;
};

// A deck holding `weights[i]` copies of card i.
std::vector<int> Cards(const std::vector<int>& weights) {
  std::vector<int> cards;
  for (size_t i = 0; i < weights.size(); ++i) {
    cards.insert(cards.end(), weights[i], static_cast<int>(i));
  }
  return cards;
}

std::string Vars(const std::string& prefix, int from, int to) {
  std::string out;
  for (int i = from; i <= to; ++i) {
    if (i > from) out += ",";
    out += prefix + std::to_string(i);
  }
  return out;
}

// --- mapping texts (the paper's families, renamed by `tag`) -----------------

// E1: A{j}_{i}(x) -> T{j}(x) for n producers of each of k targets, plus
// B(x) -> T0(x), ..., T{k-1}(x).
std::string ExpText(int n, int k, const std::string& tag) {
  std::string out;
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < n; ++i) {
      out += "A" + std::to_string(j) + "_" + std::to_string(i) + tag +
             "(x) -> T" + std::to_string(j) + tag + "(x)\n";
    }
  }
  out += "B" + tag + "(x) -> ";
  for (int j = 0; j < k; ++j) {
    out += (j > 0 ? ", T" : "T") + std::to_string(j) + tag + "(x)";
  }
  return out + "\n";
}

// E3: `relations` copy tgds of the given arity (frontier width = arity).
std::string CopyText(int relations, int arity, const std::string& tag) {
  std::string out;
  for (int r = 0; r < relations; ++r) {
    const std::string xs = Vars("x", 1, arity);
    out += "R" + std::to_string(r) + tag + "(" + xs + ") -> T" +
           std::to_string(r) + tag + "(" + xs + ")\n";
  }
  return out;
}

// One tgd joining a chain of m binary relations into T(first, last).
std::string ChainText(int m, const std::string& tag) {
  std::string out;
  for (int i = 0; i < m; ++i) {
    out += (i > 0 ? ", R" : "R") + std::to_string(i) + tag + "(x" +
           std::to_string(i) + ",x" + std::to_string(i + 1) + ")";
  }
  return out + " -> T" + tag + "(x0,x" + std::to_string(m) + ")\n";
}

// n projection tgds R{i}(x,y) -> T{i}(x).
std::string ProjText(int n, const std::string& tag) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += "R" + std::to_string(i) + tag + "(x,y) -> T" + std::to_string(i) +
           tag + "(x)\n";
  }
  return out;
}

// Relation names used in the conclusions of a rendered tgd mapping.
std::vector<std::string> ConclusionRelations(const std::string& text) {
  std::set<std::string> names;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t arrow = line.find("->");
    if (arrow == std::string::npos) continue;
    std::string rest = line.substr(arrow + 2);
    size_t pos = 0;
    while ((pos = rest.find('(')) != std::string::npos) {
      size_t start = rest.find_last_of(" ,)", pos);
      start = start == std::string::npos ? 0 : start + 1;
      names.insert(rest.substr(start, pos - start));
      const size_t close = rest.find(')', pos);
      if (close == std::string::npos) break;
      rest = rest.substr(close + 1);
    }
  }
  return {names.begin(), names.end()};
}

std::string RandomTgds(uint64_t seed, bool two_atom_conclusion, Rng& rng) {
  mapinv::RandomMappingConfig config;
  config.seed = seed;
  config.source_relations = 3;
  config.target_relations = 3;
  config.arity = 2;
  config.existential_vars = Pick(rng, 0, 1);
  if (two_atom_conclusion) {
    // Premise of one atom, conclusion of two.
    config.num_tgds = Pick(rng, 2, 3);
    config.premise_atoms = 1;
    config.conclusion_atoms = 2;
    config.premise_vars = 2;
  } else {
    config.num_tgds = Pick(rng, 2, 4);
    config.premise_atoms = Pick(rng, 1, 2);
    config.conclusion_atoms = 1;
    config.premise_vars = 3;
  }
  return mapinv::GenerateRandomMapping(config).ToString();
}

// --- invert -----------------------------------------------------------------

enum class Family { kRandomOne, kRandomTwo, kExp, kCopy, kChain, kProj };

// One kind of invert-workload request: a mapping family at one size, sent
// as one command.
struct InvertKind {
  Family family;
  int a = 0;
  int b = 0;
  const char* command = nullptr;
};

// The invert workload's mix, per 400 requests: each family variant below,
// times the commands invert, invert, polyso, rewrite. E1 runs at the sizes
// the whole pipeline finishes under default limits (gen:exp:2,4 already
// fails in eliminate_disjunctions); E3 copies at frontier widths 4-7; the
// random tgds have a one-atom conclusion, or a one-atom premise and a
// two-atom conclusion.
const std::vector<std::pair<InvertKind, int>>& InvertMix() {
  static const std::vector<std::pair<InvertKind, int>> kMix = [] {
    const std::vector<std::pair<InvertKind, int>> variants = {
        {{Family::kRandomOne}, 34}, {{Family::kRandomTwo}, 15},
        {{Family::kExp, 1, 2}, 3},  {{Family::kExp, 1, 3}, 3},
        {{Family::kExp, 1, 4}, 3},  {{Family::kExp, 2, 2}, 3},
        {{Family::kExp, 2, 3}, 3},  {{Family::kCopy, 4}, 4},
        {{Family::kCopy, 5}, 4},    {{Family::kCopy, 6}, 4},
        {{Family::kCopy, 7}, 4},    {{Family::kChain, 2}, 3},
        {{Family::kChain, 3}, 3},   {{Family::kChain, 4}, 2},
        {{Family::kChain, 5}, 2},   {{Family::kProj, 2}, 3},
        {{Family::kProj, 3}, 3},    {{Family::kProj, 4}, 2},
        {{Family::kProj, 5}, 2}};
    std::vector<std::pair<InvertKind, int>> mix;
    for (const auto& [kind, weight] : variants) {
      for (const char* command : {"invert", "polyso", "rewrite"}) {
        InvertKind k = kind;
        k.command = command;
        mix.push_back({k, std::string(command) == "invert" ? 2 * weight
                                                            : weight});
      }
    }
    return mix;
  }();
  return kMix;
}

ReqSpec InvertRequest(const InvertKind& kind, Rng& rng) {
  ReqSpec req;
  req.command = kind.command;
  // Relation names carry a per-request tag, so family requests never repeat
  // exactly; the random tgds keep the shared S*/T* names, so their
  // alpha-equivalent containment pairs recur across requests.
  const std::string tag = "_" + std::to_string(rng() % 1000000);
  switch (kind.family) {
    case Family::kRandomOne:
    case Family::kRandomTwo:
      req.mapping = RandomTgds(rng(), kind.family == Family::kRandomTwo, rng);
      break;
    case Family::kExp: {
      req.mapping = ExpText(kind.a, kind.b, tag);
      std::string body;
      for (int j = 0; j < kind.b; ++j) {
        body += (j > 0 ? ", T" : "T") + std::to_string(j) + tag + "(x)";
      }
      req.query = "Q(x) :- " + body;
      break;
    }
    case Family::kCopy:
      req.mapping = CopyText(1, kind.a, tag);
      req.query = "Q(" + Vars("x", 1, kind.a) + ") :- T0" + tag + "(" +
                  Vars("x", 1, kind.a) + ")";
      break;
    case Family::kChain:
      req.mapping = ChainText(kind.a, tag);
      req.query = "Q(x,y) :- T" + tag + "(x,z), T" + tag + "(z,y)";
      break;
    case Family::kProj:
      req.mapping = ProjText(kind.a, tag);
      req.query = "Q(x) :- T0" + tag + "(x), T1" + tag + "(x)";
      break;
  }
  if (req.query.empty()) {
    const std::vector<std::string> rels = ConclusionRelations(req.mapping);
    const std::string& a = rels[rng() % rels.size()];
    if (Pick(rng, 0, 1) == 0) {
      req.query = "Q(x,y) :- " + a + "(x,y)";
    } else {
      const std::string& b = rels[rng() % rels.size()];
      req.query = "Q(x,z) :- " + a + "(x,y), " + b + "(y,z)";
    }
  }
  if (req.command != "rewrite") req.query.clear();
  return req;
}

std::vector<ReqSpec> InvertList(Rng& rng, size_t count) {
  std::vector<int> weights;
  for (const auto& [kind, weight] : InvertMix()) weights.push_back(weight);
  Deck deck(Cards(weights), &rng);
  std::vector<ReqSpec> list;
  list.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    list.push_back(InvertRequest(InvertMix()[deck.Deal()].first, rng));
  }
  return list;
}

void MakeInvert(uint64_t seed, size_t count, WorkloadSpec* spec) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  Rng warm(seed * 0x9E3779B97F4A7C15ULL + 2);
  spec->timed = InvertList(rng, count);
  // The warm-up draws from the same mix on an independent stream, so the
  // EvalCache enters the timed window in its steady (overflowing) state
  // rather than empty.
  spec->warmup = InvertList(warm, 800);
}

// --- exchange ---------------------------------------------------------------

// Renders a generated instance over `mapping`'s source schema.
std::string InstanceText(const std::string& mapping, int rows, int domain,
                         uint64_t seed) {
  mapinv::Result<mapinv::TgdMapping> parsed = mapinv::LoadMappingSpec(mapping);
  if (!parsed.ok()) return "";
  return mapinv::GenerateInstance(*parsed->source, rows, domain, seed)
      .ToString();
}

constexpr int kExchangeRows = 3000;  // rows per relation: three segments

// True if every premise atom has distinct variables and the two atoms of a
// two-atom premise share one: no diagonal selections or cross products,
// whose output size would swing with a handful of rows.
bool StableShape(const mapinv::TgdMapping& mapping) {
  for (const mapinv::Tgd& tgd : mapping.tgds) {
    for (const mapinv::Atom& atom : tgd.premise) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        for (size_t j = i + 1; j < atom.terms.size(); ++j) {
          if (atom.terms[i] == atom.terms[j]) return false;
        }
      }
    }
    if (tgd.premise.size() == 2) {
      bool shared = false;
      for (const mapinv::Term& a : tgd.premise[0].terms) {
        for (const mapinv::Term& b : tgd.premise[1].terms) {
          shared = shared || a == b;
        }
      }
      if (!shared) return false;
    }
  }
  return true;
}

// Random tgds with existentials, of a fixed shape: the first generator seed
// whose mapping has a stable shape. The workload seed varies the data only.
std::string ExchangeRandomTgds() {
  mapinv::RandomMappingConfig random;
  random.num_tgds = 3;
  random.source_relations = 3;
  random.target_relations = 3;
  random.arity = 2;
  random.premise_atoms = 2;
  random.conclusion_atoms = 1;
  random.premise_vars = 3;
  random.existential_vars = 1;
  for (random.seed = 1;; ++random.seed) {
    mapinv::TgdMapping mapping = mapinv::GenerateRandomMapping(random);
    if (StableShape(mapping)) return mapping.ToString();
  }
}

void MakeExchange(uint64_t seed, size_t count, WorkloadSpec* spec) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  spec->mappings = {ChainText(3, ""), ChainText(2, ""), CopyText(2, 3, ""),
                    ProjText(3, ""), ExchangeRandomTgds()};
  // Value domains per mapping, from selective (domain far above the row
  // count: joins select few rows) to dense (joins fan out).
  constexpr int kRows = kExchangeRows;
  const int domains[][3] = {{100 * kRows, 4 * kRows, kRows},
                            {100 * kRows, 2 * kRows, kRows},
                            {100 * kRows, kRows, kRows / 4},
                            {100 * kRows, kRows / 2, kRows / 8},
                            {100 * kRows, 8 * kRows, 2 * kRows}};
  for (int m = 0; m < 5; ++m) {
    for (int d = 0; d < 3; ++d) {
      HeldSpec held;
      held.mapping = m;
      held.name = "h" + std::to_string(3 * m + d);
      held.text = InstanceText(spec->mappings[m], kExchangeRows,
                               domains[m][d], rng());
      spec->held.push_back(std::move(held));
    }
  }
  for (size_t h = 0; h < spec->held.size(); ++h) {
    ReqSpec req;
    req.command = "exchange";
    req.held = static_cast<int>(h);
    spec->warmup.push_back(req);
  }
  // One share per instance, two for h2 and h8 (just above the ~2 ms group
  // h5/h10/h14): that centres the median inside the group instead of on its
  // lower edge.
  std::vector<int> shares(spec->held.size(), 1);
  shares[2] = shares[8] = 2;
  Deck deck(Cards(shares), &rng);
  for (size_t i = 0; i < count; ++i) {
    ReqSpec req;
    req.command = "exchange";
    req.held = deck.Deal();
    spec->timed.push_back(req);
  }
}

// --- worlds -----------------------------------------------------------------

// A tiny source instance of an E1 mapping: `b` B facts over consecutive
// seeded constants and one producer fact sharing the first of them. The
// constants vary with the seed; the shape, and hence the number of worlds
// the reverse chase forks, is fixed per band.
std::string WorldsInstance(int b, Rng& rng) {
  const int base = Pick(rng, 1, 1000000);
  std::string out = "{ ";
  for (int i = 0; i < b; ++i) {
    out += "B(" + std::to_string(base + i) + "), ";
  }
  return out + "A0_0(" + std::to_string(base) + ") }";
}

// (E1 mapping, B facts) bands, each forking a bounded number of worlds far
// below the default max_worlds, with their share of the list (per 50
// requests). Listed from cheapest to dearest; the weights put the median
// request in the middle of the gen:exp:2,2 / 2-fact band and the p99 in the
// middle of the dearest band (3 B facts over gen:exp:2,2, 2% of the list),
// so neither percentile sits on the edge between two bands.
struct WorldsBand {
  int mapping;  // index into the worlds mappings: exp 1,2 / 1,3 / 2,2
  int b;
  int weight;
};
constexpr WorldsBand kWorldsBands[] = {{0, 2, 7},  {1, 2, 7}, {0, 3, 7},
                                       {2, 2, 8},  {1, 3, 10}, {0, 4, 10},
                                       {2, 3, 1}};
constexpr int kWorldsWarmup = 500;

void MakeWorlds(uint64_t seed, size_t count, WorkloadSpec* spec) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 4);
  spec->mappings = {ExpText(1, 2, ""), ExpText(1, 3, ""), ExpText(2, 2, "")};
  auto request = [&](const WorldsBand& band) {
    ReqSpec req;
    req.command = "roundtrip";
    req.held = band.mapping;  // index of the mapping (and its maxrec)
    req.text = WorldsInstance(band.b, rng);
    return req;
  };
  std::vector<int> weights;
  for (const WorldsBand& band : kWorldsBands) weights.push_back(band.weight);
  Deck deck(Cards(weights), &rng);
  for (int i = 0; i < kWorldsWarmup; ++i) {
    spec->warmup.push_back(request(kWorldsBands[deck.Deal()]));
  }
  for (size_t i = 0; i < count; ++i) {
    spec->timed.push_back(request(kWorldsBands[deck.Deal()]));
  }
}

// --- serve ------------------------------------------------------------------

constexpr int kServeConnections = 2;
constexpr int kServeHeld = 4;        // held instances per session
constexpr int kServeRows = 2000;     // rows per relation of a held instance
constexpr int kServePutEvery = 64;   // a periodic instance.put resets growth
constexpr int kServeWarmupRounds = 4;  // read-only warm-up passes per held

void MakeServe(uint64_t seed, size_t count, WorkloadSpec* spec) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 5);
  // Session 0: a two-way chain join (two producers of T, so rewriting
  // T-joins yields several disjuncts whose minimization consults the
  // EvalCache); session 1: a copy mapping.
  spec->mappings = {ChainText(2, "") + "R1(x0,x1), R0(x1,x2) -> T(x0,x2)\n",
                    CopyText(2, 3, "")};
  const std::string queries[] = {"Q(x,y) :- T(x,z), T(z,y)",
                                 "Q(x,y) :- T0(x,y,z), T1(z,y,w)"};
  for (int c = 0; c < kServeConnections; ++c) {
    for (int h = 0; h < kServeHeld; ++h) {
      HeldSpec held;
      held.mapping = c;
      held.name = "h" + std::to_string(h);
      held.text =
          InstanceText(spec->mappings[c], kServeRows, kServeRows, rng());
      held.via_snapshot = h >= kServeHeld / 2;
      spec->held.push_back(std::move(held));
    }
  }
  // Per connection, per 16 requests: the reads of mapinv_bench_serve's mix
  // in its 4:2:1:1 proportion (exchange, rewrite, invert, metrics), and as
  // many writes (instance.append 4, exchange-delta 4), the 50/50 read/update
  // split of YCSB's update-heavy session-store workload A. Every 64th
  // request is an instance.put that resets a held instance to its set-up
  // rows: between two resets the writes grow it by about 6% on average.
  static const char* kCommands[] = {"exchange", "rewrite", "invert",
                                    "metrics", "instance.append",
                                    "exchange-delta"};
  std::vector<Deck> commands, helds;
  for (int c = 0; c < kServeConnections; ++c) {
    commands.emplace_back(Cards({4, 2, 1, 1, 4, 4}), &rng);
    helds.emplace_back(Cards(std::vector<int>(kServeHeld, 1)), &rng);
  }
  auto request = [&](int conn, size_t seq) {
    ReqSpec req;
    req.conn = conn;
    req.held = conn * kServeHeld + helds[conn].Deal();
    if (seq % kServePutEvery == kServePutEvery - 1) {
      req.command = "instance.put";
      req.text = spec->held[req.held].text;
      return req;
    }
    req.command = kCommands[commands[conn].Deal()];
    if (req.command == "rewrite") req.query = queries[conn];
    if (req.command == "instance.append" || req.command == "exchange-delta") {
      req.text = InstanceText(spec->mappings[conn], 4, 100 * kServeRows, rng());
    }
    return req;
  };
  // Warm-up: read-only passes over every held instance (lazy index builds,
  // the inverse memo, the server's EvalCache), leaving the rows as set up.
  for (int round = 0; round < kServeWarmupRounds; ++round) {
    for (int c = 0; c < kServeConnections; ++c) {
      for (const char* command : {"exchange", "rewrite", "invert"}) {
        for (int h = 0; h < kServeHeld; ++h) {
          ReqSpec req;
          req.conn = c;
          req.held = c * kServeHeld + h;
          req.command = command;
          if (req.command == "rewrite") req.query = queries[c];
          spec->warmup.push_back(req);
        }
      }
    }
  }
  // Requests alternate connections; each connection sends its own
  // subsequence in order.
  std::vector<size_t> seq(kServeConnections, 0);
  for (size_t i = 0; i < count; ++i) {
    const int conn = static_cast<int>(i % kServeConnections);
    spec->timed.push_back(request(conn, seq[conn]++));
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"invert", "exchange",
                                                  "worlds", "serve"};
  return kNames;
}

size_t TimedCount(const std::string& name, int seconds) {
  // Requests per second of timed window on a 4-vCPU Xeon VM, between the
  // rates of its slow and its fast phases (README.md, "Steadiness"). The
  // count is fixed per (workload, seconds), never by a clock, so the work
  // of a run depends on its arguments only.
  const size_t per_second = name == "invert"     ? 2800
                            : name == "exchange" ? 500
                            : name == "worlds"   ? 2300
                            : name == "serve"    ? 500
                                                 : 0;
  // At least 1000, so the p99 always has ten samples beyond it.
  return std::max<size_t>(
      1000, per_second * static_cast<size_t>(std::max(seconds, 1)));
}

bool MakeWorkload(const std::string& name, uint64_t seed, size_t count,
                  WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (name == "invert") {
    MakeInvert(seed, count, &spec);
  } else if (name == "exchange") {
    MakeExchange(seed, count, &spec);
  } else if (name == "worlds") {
    MakeWorlds(seed, count, &spec);
  } else if (name == "serve") {
    MakeServe(seed, count, &spec);
  } else {
    return false;
  }
  *out = std::move(spec);
  return true;
}

std::string Dump(const WorkloadSpec& spec) {
  std::string out = "workload " + spec.name + " seed " +
                    std::to_string(spec.seed) + "\n";
  auto line = [](const char* section, size_t i, const std::string& text) {
    return std::string(section) + " " + std::to_string(i) + " " +
           mapinv::Json(text).Serialize() + "\n";
  };
  for (size_t i = 0; i < spec.mappings.size(); ++i) {
    out += line("mapping", i, spec.mappings[i]);
  }
  for (size_t i = 0; i < spec.held.size(); ++i) {
    const HeldSpec& h = spec.held[i];
    out += line("held", i,
                std::to_string(h.mapping) + " " + h.name + " " +
                    (h.via_snapshot ? "snapshot " : "put ") + h.text);
  }
  auto requests = [&](const char* section, const std::vector<ReqSpec>& list) {
    for (size_t i = 0; i < list.size(); ++i) {
      const ReqSpec& r = list[i];
      out += line(section, i,
                  r.command + " conn=" + std::to_string(r.conn) +
                      " held=" + std::to_string(r.held) + " mapping=" +
                      r.mapping + " query=" + r.query + " text=" + r.text);
    }
  };
  requests("warmup", spec.warmup);
  requests("timed", spec.timed);
  return out;
}

}  // namespace reqbench
