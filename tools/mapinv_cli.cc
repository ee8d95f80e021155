// mapinv_cli — command-line front end for the mapinv library.
//
// Usage:
//   mapinv_cli [flags] invert   <mapping>                     CQ-maximum recovery
//   mapinv_cli [flags] maxrec   <mapping>                     raw maximum recovery
//   mapinv_cli [flags] polyso   <mapping>                     PolySOInverse (via SO)
//   mapinv_cli [flags] rewrite  <mapping> '<query>'           source rewriting
//   mapinv_cli [flags] exchange <mapping> <instance-file>     forward chase
//   mapinv_cli [flags] exchange-delta <mapping> <instance-file> <delta-file>
//                                                incremental chase maintenance
//   mapinv_cli [flags] roundtrip <mapping> <instance-file> [reverse-file]
//                                                             chase there and back
//
// Commands may also be spelled as flags (`--invert` ≡ `invert`). <mapping> is
// a tgd file in the parser syntax, or a synthetic generator spec:
//   gen:exp:N,K    exponential-recovery family (N producers, K conjuncts)
//   gen:chain:M    chain join of M binary relations
//   gen:copy:N,A   N copy tgds of arity A
//   gen:proj:N     N projection tgds
// Mapping-taking commands with no <mapping> argument default to gen:exp:3,9
// (the exponential family the benchmarks use).
//
// The CLI is a thin transport over the engine's Request/Response API
// (engine/request.h): it resolves file arguments to texts, builds one
// EngineRequest, and executes it via ExecuteRequest — exactly the entry
// point mapinv_serve uses, so the same request produces byte-identical
// canonical response JSON on either transport.
//
// Flags (anywhere on the command line, --name=value or --name value):
//   --max-facts=N      chase fact budget        --max-worlds=N   world budget
//   --max-disjuncts=N  rewriting budget         --threads=N      parallelism
//   --deadline-ms=N    wall-clock budget        --stats          counters to stderr
//   --on-exhausted=fail|partial   what a blown budget does: error out (default)
//                      or return the best sound partial result, flagged
//                      "partial":true in --stats-json
//   --cancel-after-ms=N           cancel the command from a timer thread
//                      (exercises cooperative cancellation end to end)
//   --trace            per-phase span tree to stderr (human-readable)
//   --trace-json       span tree as one JSON line to stderr
//   --stats-json       {"command","wall_ms","stats"} as one JSON line to stderr
//   --response-json    print the canonical EngineResponse JSON document to
//                      stdout instead of the rendered result
//   --dump-request     print the EngineRequest protocol JSON to stdout and
//                      exit without executing (feed it to mapinv_serve)
//   --memory-budget-bytes=N       spill chase targets to disk past N bytes of
//                      resident tuple payload (0 = unlimited, the default)
//   --spill-dir=PATH   directory for the (unlinked) spill file; empty uses
//                      the system temp directory
//   --checkpoint-dir=PATH         make world enumeration (roundtrip) a
//                      durable job: commit the frontier to PATH so a killed
//                      run can be resumed (docs/JOBS.md)
//   --checkpoint-every=N          triggers between checkpoint commits
//                      (default 64)
//   --resume           continue the job in --checkpoint-dir from its newest
//                      good checkpoint instead of refusing to overwrite it
//   --save-instance=PATH          after an instance-producing command
//                      (exchange, exchange-delta, core), also persist the
//                      result as a mapinv snapshot file (docs/STORAGE.md)
//   --load-instance=PATH          read the <instance> payload from a snapshot
//                      file instead of a text file; the <instance> positional
//                      is then omitted
//
// Instance files contain one `{ ... }` instance. Exit status is 0 on
// success, 1 on usage errors, 2 on processing errors (including
// kResourceExhausted from --deadline-ms and the limit flags).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/parse.h"
#include "engine/execution_options.h"
#include "engine/request.h"
#include "engine/trace.h"

namespace mapinv {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mapinv_cli <command> <mapping> [arg]\n"
               "commands (also accepted as --command):\n"
               "  invert    <mapping>             CQ-maximum recovery "
               "(Section 4)\n"
               "  maxrec    <mapping>             maximum recovery "
               "(disjunctions/equalities)\n"
               "  polyso    <mapping>             polynomial-time SO inverse "
               "(Section 5)\n"
               "  rewrite   <mapping> '<query>'   certain-answer source "
               "rewriting\n"
               "  exchange  <mapping> <instance>  chase forward\n"
               "  exchange-delta <mapping> <instance> <delta>\n"
               "                                  chase, append the delta "
               "rows, absorb incrementally\n"
               "  roundtrip <mapping> <instance> [reverse]\n"
               "                                  chase forward then back; "
               "[reverse] (e.g. maxrec output)\n"
               "                                  replaces the default CQ "
               "recovery\n"
               "  so-invert <so-mapping>          PolySOInverse of a plain "
               "SO-tgd file\n"
               "  compose   <mapping1> <mapping2> SO-tgd composition by "
               "unfolding\n"
               "  check     <mapping> <reverse> <instance>\n"
               "                                  verify the reverse mapping "
               "is a sound recovery\n"
               "  core      <instance>            core of an instance with "
               "nulls\n"
               "<mapping> may be a file or a generator spec: gen:exp:N,K "
               "gen:chain:M gen:copy:N,A gen:proj:N\n"
               "flags: --max-facts=N --max-worlds=N --max-disjuncts=N "
               "--threads=N --deadline-ms=N\n"
               "       --on-exhausted=fail|partial --cancel-after-ms=N\n"
               "       --stats --stats-json --trace --trace-json\n"
               "       --response-json --dump-request\n"
               "       --memory-budget-bytes=N --spill-dir=PATH\n"
               "       --checkpoint-dir=PATH --checkpoint-every=N --resume\n"
               "       --save-instance=PATH --load-instance=PATH\n");
  return 1;
}

// Prints a flag diagnostic; always returns false so callers can
// `return FlagError(...)` from ParseFlags.
bool FlagError(const std::string& message) {
  std::fprintf(stderr, "mapinv_cli: %s\n", message.c_str());
  return false;
}

// The command vocabulary, shared between positional and --flag spellings.
bool IsCommand(const std::string& name) {
  static const char* kCommands[] = {
      "invert", "maxrec",    "polyso",  "rewrite", "exchange",
      "exchange-delta", "roundtrip", "so-invert", "compose", "check", "core"};
  for (const char* c : kCommands) {
    if (name == c) return true;
  }
  return false;
}

struct OutputFlags {
  bool stats = false;
  bool stats_json = false;
  bool trace = false;
  bool trace_json = false;
  bool response_json = false;
  bool dump_request = false;
  /// Delay before the CLI cancels its own call; < 0 = never.
  int64_t cancel_after_ms = -1;
  /// Snapshot persistence (transport-side: the engine never touches files).
  std::string save_instance_path;
  std::string load_instance_path;
};

// Parses `--name=value` / `--name value` flags out of argv, leaving the
// positional arguments in `positional`. A flag spelling a command name
// (`--invert`) is rewritten to the positional command. Limit/deadline flags
// land in the request's options (so --dump-request carries them on the
// wire); cancel/output flags are transport-side. Returns false on a bad
// flag, after printing a diagnostic naming it.
bool ParseFlags(int argc, char** argv, RequestOptions* options,
                OutputFlags* output, std::vector<char*>* positional) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional->push_back(argv[i]);
      continue;
    }
    std::string name = arg;
    std::string value;
    bool have_value = false;
    if (size_t eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    if (!have_value && IsCommand(name.substr(2))) {
      positional->push_back(argv[i] + 2);
      continue;
    }
    if (name == "--stats") {
      output->stats = true;
      continue;
    }
    if (name == "--stats-json") {
      output->stats_json = true;
      continue;
    }
    if (name == "--trace") {
      output->trace = true;
      continue;
    }
    if (name == "--trace-json") {
      output->trace_json = true;
      continue;
    }
    if (name == "--response-json") {
      output->response_json = true;
      continue;
    }
    if (name == "--dump-request") {
      output->dump_request = true;
      continue;
    }
    if (name == "--resume") {
      options->resume = true;
      continue;
    }
    const bool known =
        name == "--max-facts" || name == "--max-worlds" ||
        name == "--max-disjuncts" || name == "--threads" ||
        name == "--deadline-ms" || name == "--cancel-after-ms" ||
        name == "--on-exhausted" || name == "--memory-budget-bytes" ||
        name == "--spill-dir" || name == "--checkpoint-dir" ||
        name == "--checkpoint-every" || name == "--save-instance" ||
        name == "--load-instance";
    if (!known) {
      return FlagError("unknown flag '" + name + "'");
    }
    if (!have_value) {
      if (i + 1 >= argc) {
        return FlagError("flag '" + name + "' expects a value");
      }
      value = argv[++i];
    }
    if (name == "--spill-dir") {
      options->spill_dir = value;
      continue;
    }
    if (name == "--checkpoint-dir") {
      if (value.empty()) {
        return FlagError("flag '--checkpoint-dir' expects a directory path");
      }
      options->checkpoint_dir = value;
      continue;
    }
    if (name == "--save-instance" || name == "--load-instance") {
      if (value.empty()) {
        return FlagError("flag '" + name + "' expects a file path");
      }
      (name == "--save-instance" ? output->save_instance_path
                                 : output->load_instance_path) = value;
      continue;
    }
    if (name == "--on-exhausted") {
      if (value == "fail") {
        options->on_exhausted = OnExhausted::kFail;
      } else if (value == "partial") {
        options->on_exhausted = OnExhausted::kPartial;
      } else {
        return FlagError("bad value '" + value +
                         "' for --on-exhausted (want 'fail' or 'partial')");
      }
      continue;
    }
    // The remaining flags are non-negative integers; each has a range that
    // its destination type can actually represent.
    const uint64_t max = (name == "--threads")
                             ? 1u << 16
                             : static_cast<uint64_t>(INT64_MAX);
    uint64_t n = 0;
    if (!ParseUint(value, max, &n)) {
      return FlagError("bad value '" + value + "' for " + name +
                       " (want an integer in [0, " + std::to_string(max) +
                       "])");
    }
    if (name == "--max-facts") {
      options->max_facts = n;
    } else if (name == "--max-worlds") {
      options->max_worlds = n;
    } else if (name == "--max-disjuncts") {
      options->max_disjuncts = n;
    } else if (name == "--threads") {
      options->threads = static_cast<int>(n);
    } else if (name == "--deadline-ms") {
      options->deadline_ms = static_cast<int64_t>(n);
    } else if (name == "--cancel-after-ms") {
      output->cancel_after_ms = static_cast<int64_t>(n);
    } else if (name == "--memory-budget-bytes") {
      options->memory_budget_bytes = n;
    } else if (name == "--checkpoint-every") {
      options->checkpoint_every = n;
    }
  }
  return true;
}

// Arms a background thread that cancels `token` after a delay, unless the
// command finishes first (the destructor wakes and joins it).
class CancelTimer {
 public:
  void Arm(CancelToken* token, int64_t delay_ms) {
    thread_ = std::thread([this, token, delay_ms] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::milliseconds(delay_ms),
                        [this] { return done_; })) {
        token->Cancel();
      }
    });
  }
  ~CancelTimer() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A mapping argument is either a file path (read here; the engine never
// touches the filesystem) or a gen:<family>:<params> spec (passed through
// verbatim for the engine's LoadMappingSpec to resolve).
Result<std::string> ResolveMappingArg(const std::string& spec) {
  if (spec.rfind("gen:", 0) == 0) return spec;
  return ReadFile(spec);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "mapinv_cli: %s\n", status.ToString().c_str());
  return 2;
}

int Run(int argc, char** argv) {
  EngineRequest request;
  ExecStats stats;
  OutputFlags output;
  std::vector<char*> args;
  if (!ParseFlags(argc, argv, &request.options, &output, &args)) {
    return Usage();
  }

  // The transport's standing configuration. Limit flags ride in the
  // request; the base carries the process-wide sinks (stats/trace/cancel)
  // and mirrors --threads so the request's value survives the engine's
  // "never raise the transport budget" clamp.
  ExecutionOptions base;
  base.stats = &stats;
  if (request.options.threads) base.threads = *request.options.threads;
  Tracer tracer;
  if (output.trace || output.trace_json) base.trace = &tracer;
  CancelToken cancel;
  CancelTimer cancel_timer;
  if (output.cancel_after_ms >= 0) {
    base.cancel = &cancel;
    cancel_timer.Arm(&cancel, output.cancel_after_ms);
  }

  const int narg = static_cast<int>(args.size());
  argv = args.data();
  if (narg < 2) return Usage();
  const std::string command = argv[1];
  if (!IsCommand(command)) {
    std::fprintf(stderr, "mapinv_cli: unknown command '%s'\n", command.c_str());
    return Usage();
  }
  request.command = command;
  // --load-instance binds the instance payload from a snapshot file; the
  // <instance> positional is then omitted and later positionals shift left.
  const bool have_load = !output.load_instance_path.empty();
  if (have_load) {
    Result<Instance> loaded = Instance::Load(output.load_instance_path);
    if (!loaded.ok()) return Fail(loaded.status());
    request.bound_instance =
        std::make_shared<const Instance>(std::move(*loaded));
  }
  // Mapping-taking commands run against the exponential family by default;
  // commands needing real files still require their arguments.
  const bool needs_file = (command == "core" && !have_load) ||
                          command == "so-invert" ||
                          command == "compose" || command == "check" ||
                          command == "exchange" || command == "roundtrip" ||
                          command == "exchange-delta";
  if (narg < 3 && needs_file) return Usage();
  const std::string mapping_arg = narg >= 3 ? argv[2] : "gen:exp:3,9";

  // Printers run on every exit path (destructors), after the command body.
  struct OutputPrinter {
    const ExecStats& stats;
    const Tracer& tracer;
    const OutputFlags& output;
    const std::string& command;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    ~OutputPrinter() {
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (output.stats) {
        std::fprintf(stderr, "%s\n", stats.ToString().c_str());
      }
      if (output.stats_json) {
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.3f", wall_ms);
        std::fprintf(stderr, "{\"command\":\"%s\",\"wall_ms\":%s,\"stats\":%s}\n",
                     command.c_str(), wall,
                     StatsToJson(stats.Snapshot()).Serialize().c_str());
      }
      if (output.trace) {
        std::fprintf(stderr, "%s", tracer.ToText().c_str());
      }
      if (output.trace_json) {
        std::fprintf(stderr, "%s\n", tracer.ToJson().c_str());
      }
    }
  } printer{stats, tracer, output, command};

  // Resolve the positional arguments into request payload texts. Each
  // command keeps its historical arity checks (usage errors stay exit 1,
  // unreadable files exit 2).
  if (command == "core") {
    if (!have_load) {
      Result<std::string> text = ReadFile(argv[2]);
      if (!text.ok()) return Fail(text.status());
      request.instance = std::move(*text);
    }
  } else if (command == "so-invert") {
    Result<std::string> text = ReadFile(argv[2]);
    if (!text.ok()) return Fail(text.status());
    request.mapping = std::move(*text);
  } else {
    Result<std::string> mapping_text = ResolveMappingArg(mapping_arg);
    if (!mapping_text.ok()) return Fail(mapping_text.status());
    request.mapping = std::move(*mapping_text);
    if (command == "compose") {
      if (narg < 4) return Usage();
      Result<std::string> second = ResolveMappingArg(argv[3]);
      if (!second.ok()) return Fail(second.status());
      request.mapping2 = std::move(*second);
    } else if (command == "check") {
      if (narg < (have_load ? 4 : 5)) return Usage();
      Result<std::string> reverse_text = ReadFile(argv[3]);
      if (!reverse_text.ok()) return Fail(reverse_text.status());
      request.reverse = std::move(*reverse_text);
      if (!have_load) {
        Result<std::string> instance_text = ReadFile(argv[4]);
        if (!instance_text.ok()) return Fail(instance_text.status());
        request.instance = std::move(*instance_text);
      }
    } else if (command == "rewrite") {
      if (narg < 4) return Usage();
      request.query = argv[3];
    } else if (command == "exchange" || command == "roundtrip") {
      if (!have_load) {
        if (narg < 4) return Usage();
        Result<std::string> instance_text = ReadFile(argv[3]);
        if (!instance_text.ok()) return Fail(instance_text.status());
        request.instance = std::move(*instance_text);
      }
      // roundtrip [reverse]: drive the world enumeration with an explicit
      // reverse mapping (maxrec output, disjunctions included) instead of
      // the CQ-maximum recovery.
      const int reverse_arg = have_load ? 3 : 4;
      if (command == "roundtrip" && narg > reverse_arg) {
        Result<std::string> reverse_text = ReadFile(argv[reverse_arg]);
        if (!reverse_text.ok()) return Fail(reverse_text.status());
        request.reverse = std::move(*reverse_text);
      }
    } else if (command == "exchange-delta") {
      if (!have_load) {
        if (narg < 5) return Usage();
        Result<std::string> instance_text = ReadFile(argv[3]);
        if (!instance_text.ok()) return Fail(instance_text.status());
        request.instance = std::move(*instance_text);
      }
      const int delta_arg = have_load ? 3 : 4;
      if (narg < delta_arg + 1) return Usage();
      Result<std::string> delta_text = ReadFile(argv[delta_arg]);
      if (!delta_text.ok()) return Fail(delta_text.status());
      request.delta = std::move(*delta_text);
    }
  }

  if (output.dump_request) {
    const std::string wire = EngineRequestToJson(request).Serialize();
    std::fwrite(wire.data(), 1, wire.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  const EngineResponse response = ExecuteRequest(request, base);
  if (!output.save_instance_path.empty() && response.status.ok()) {
    if (response.instance_artifact == nullptr) {
      return Fail(Status::InvalidArgument(
          "--save-instance needs an instance-producing command "
          "(exchange, exchange-delta, core)"));
    }
    if (Status saved =
            response.instance_artifact->Save(output.save_instance_path);
        !saved.ok()) {
      return Fail(saved);
    }
  }
  if (output.response_json) {
    const std::string wire = ResponseToJson(response).Serialize();
    std::fwrite(wire.data(), 1, wire.size(), stdout);
    std::fputc('\n', stdout);
  } else if (response.status.ok()) {
    std::fwrite(response.result.data(), 1, response.result.size(), stdout);
  }
  if (!response.status.ok()) {
    if (output.response_json) return 2;
    return Fail(response.status);
  }
  return response.kind == ResultKind::kCheckViolation ? 2 : 0;
}

}  // namespace
}  // namespace mapinv

int main(int argc, char** argv) { return mapinv::Run(argc, argv); }
