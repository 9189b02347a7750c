//===- perfbench/main.cpp - Source-to-result benchmark of daisy ----------===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the public API from source program to checked result on one
// workload and prints one JSON line of metrics (see README.md):
//
//   perfbench --workload cloudsc|serve --seed N --seconds S
//             --trace 0|1 [--trace-file PATH]
//
// Every run sets up, seeds the tuning database, builds the oracle, then
// spends --seconds in two timed phases:
//
// - direct passes: a fresh Engine per pass (sharing the seeded database)
//   optimizes every program of the pool once, then runs each kernel a
//   fixed number of times;
// - served traffic: a closed loop of two clients against a two-worker
//   serve::Server; each operation is Server::optimize -> submit on fresh
//   buffers -> wait.
//
// Every optimize, run and served operation is checked against a tree-walk
// of the unscheduled source. With --trace 1 the flight recorder is on, the
// benchmark wraps each layer call in a Bench span tagged with the
// operation id, and the per-layer metrics are derived from the recorded
// spans instead of the end-to-end ones.
//
//===----------------------------------------------------------------------===//

#include "pool.h"

#include "api/Engine.h"
#include "frontends/PolyBench.h"
#include "ir/Node.h"
#include "ir/StructuralHash.h"
#include "machine/Simulator.h"
#include "normalize/Pipeline.h"
#include "obs/Trace.h"
#include "serve/Server.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace daisy;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

//===----------------------------------------------------------------------===//
// Configuration
//===----------------------------------------------------------------------===//

/// Threads are pinned here, never inherited from DAISY_THREADS or the
/// hardware: direct passes and seeding use four; served bursts use two
/// single-threaded workers and two client threads, four in all.
constexpr int DirectThreads = 4;
constexpr int ServeWorkers = 2;
constexpr int ServePlanThreads = 1;
constexpr int ServeClients = 2;
/// Kernel::run calls per program per direct pass.
constexpr int RunsPerPass = 3;
/// Set-ups timed per run; setup_s is their median.
constexpr int SetupRepeats = 31;
/// Runs of each program in the traced run's cross-pool pass.
constexpr int SideRuns = 5;
constexpr size_t TraceCapacity = size_t(1) << 19;

struct WorkloadSpec {
  const char *Name;
  bool PolyBench;      ///< Pool: 45 PolyBench variants, else CLOUDSC.
  double DirectShare;  ///< Share of --seconds spent in direct passes.
  bool SkewedDraw;     ///< Served draws: skewed deck, else uniform.
  size_t InputSets;    ///< Seeded input sets per kernel.
};

const WorkloadSpec Workloads[] = {
    {"cloudsc", false, 0.75, false, 1},
    {"serve", true, 0.5, true, 2},
};

struct Args {
  const WorkloadSpec *Spec = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string TraceFile;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cloudsc|serve --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      for (const WorkloadSpec &W : Workloads)
        if (Value == W.Name)
          A.Spec = &W;
      if (!A.Spec)
        usage(("unknown workload " + Value).c_str());
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (!End || *End != '\0' || !(A.Seconds > 0 && A.Seconds <= 600))
        usage("--seconds must be in (0, 600]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace must be 0 or 1");
      A.Trace = Value == "1";
    } else if (Flag == "--trace-file") {
      A.TraceFile = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!A.Spec || !HaveSeed || A.Seconds <= 0)
    usage("--workload, --seed and --seconds are required");
  return A;
}

//===----------------------------------------------------------------------===//
// Small statistics
//===----------------------------------------------------------------------===//

double usSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

/// Linear-interpolation quantile (Q in [0, 1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double med(const std::vector<double> &V) { return quantile(V, 0.5); }

double meanOf(const std::vector<double> &V) {
  return V.empty() ? 0.0
                   : std::accumulate(V.begin(), V.end(), 0.0) / double(V.size());
}

/// Kendall's tau-b of two equally long samples.
double kendallTauB(const std::vector<double> &X, const std::vector<double> &Y) {
  double Concordant = 0, Discordant = 0, TiesX = 0, TiesY = 0;
  for (size_t I = 0; I < X.size(); ++I)
    for (size_t J = I + 1; J < X.size(); ++J) {
      double DX = X[I] - X[J], DY = Y[I] - Y[J];
      if (DX == 0 && DY == 0)
        continue;
      if (DX == 0)
        ++TiesX;
      else if (DY == 0)
        ++TiesY;
      else if ((DX > 0) == (DY > 0))
        ++Concordant;
      else
        ++Discordant;
    }
  double Denom = std::sqrt((Concordant + Discordant + TiesX) *
                           (Concordant + Discordant + TiesY));
  return Denom > 0 ? (Concordant - Discordant) / Denom : 0.0;
}

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// Attempted / failed operation counts. An operation fails when the call
/// throws, reports a non-ok status, degrades to the tree-walk fallback, or
/// produces outputs that do not match the oracle.
struct Tally {
  std::atomic<int64_t> Attempted{0}, Failed{0};
  void record(bool Ok) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok)
      Failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// What a traced operation id stands for, so spans map back to programs.
struct OpTag {
  enum Kind : uint8_t { Direct, Side, Served } K = Direct;
  size_t Program = 0; ///< Index into the pool the op ran on.
};

class OpLog {
public:
  uint64_t add(OpTag T) {
    std::lock_guard<std::mutex> Lock(M);
    Tags.push_back(T);
    return Tags.size(); // Ids start at 1: the recorder drops a zero arg.
  }
  OpTag at(uint64_t Id) const {
    std::lock_guard<std::mutex> Lock(M);
    return Tags.at(Id - 1);
  }

private:
  mutable std::mutex M;
  std::vector<OpTag> Tags;
};

EngineOptions directEngineOptions(std::shared_ptr<TransferTuningDatabase> Db,
                                  int Threads) {
  EngineOptions O;
  O.Plan.NumThreads = Threads;
  O.Eval.NumThreads = Threads;
  O.Database = std::move(Db);
  return O;
}

/// The set-up a user pays before the first operation, seeding excluded:
/// building the pool from the frontends and starting the server. The
/// benchmark's own inputs are generated afterwards, outside the timing.
struct Setup {
  Pool P;
  std::shared_ptr<TransferTuningDatabase> Db;
  std::unique_ptr<serve::Server> Server;
};

std::unique_ptr<Setup> makeSetup(const WorkloadSpec &W) {
  auto S = std::make_unique<Setup>();
  S->P = W.PolyBench ? polyBenchPool() : cloudscPool();
  S->Db = std::make_shared<TransferTuningDatabase>();
  serve::ServerOptions SO;
  SO.Workers = ServeWorkers;
  SO.Engine = directEngineOptions(S->Db, ServePlanThreads);
  S->Server = std::make_unique<serve::Server>(std::move(SO));
  return S;
}

/// A compiled kernel counts as a successful optimize unless it degraded
/// to the tree-walk fallback or could not be retained.
bool usable(const Kernel &K) {
  return K && !K.isTreeWalk() && !K.isExhausted();
}

/// Runs \p K on input set \p Set of its group and checks the outputs.
/// Returns the run's wall time in microseconds through \p Us.
bool runChecked(const Kernel &K, const KernelGroup &G, size_t Set,
                ArgBuffers &Buf, const std::vector<std::vector<double>> &Ref,
                uint64_t Op, double &Us) {
  loadInputs(G, Set, Buf);
  RunStatus St;
  {
    TraceSpan Span(TraceCategory::Bench, "bench.run", Op);
    auto T0 = Clock::now();
    St = K.run(Buf.Binding);
    Us = usSince(T0);
  }
  return St.ok() && outputsMatch(Buf.Arrays, Ref);
}

//===----------------------------------------------------------------------===//
// Phases
//===----------------------------------------------------------------------===//

struct DirectResult {
  std::vector<double> OptimizeMs;          ///< Per untraced pass: sum over
                                           ///< programs of Engine::optimize.
  std::vector<std::vector<double>> RunUs;  ///< Per program: every run.
  std::vector<double> PassUsTraced, PassUsUntraced;
  std::vector<Kernel> Kernels;             ///< The first pass's kernels.
};

/// One direct pass: a fresh engine optimizes every program once, then each
/// kernel runs RunsPerPass times. On traced passes the benchmark also
/// calls normalize() alone (outside the optimize timing) and splits
/// optimize into its schedule and compile calls.
void directPass(const Pool &P, const Oracle &Ref,
                const std::shared_ptr<TransferTuningDatabase> &Db, int Pass,
                bool Traced, std::vector<ArgBuffers> &Bufs, OpLog &Ops,
                Tally &T, DirectResult &R) {
  Engine E(directEngineOptions(Db, DirectThreads));
  std::vector<Kernel> Ks(P.Programs.size());
  std::vector<uint64_t> OpIds(P.Programs.size());
  double OptimizeUs = 0, RunUs = 0;
  for (size_t I = 0; I < P.Programs.size(); ++I) {
    const Program &Src = P.Programs[I].Source;
    OpIds[I] = Ops.add({OpTag::Direct, I});
    bool Ok = true;
    try {
      if (Traced) {
        TraceSpan Span(TraceCategory::Bench, "bench.normalize", OpIds[I]);
        Program N = normalize(Src);
      }
      auto T0 = Clock::now();
      if (Traced) {
        TraceSpan Span(TraceCategory::Bench, "bench.optimize", OpIds[I]);
        Program Sched;
        {
          TraceSpan S2(TraceCategory::Bench, "bench.schedule", OpIds[I]);
          Sched = E.schedule(Src);
        }
        TraceSpan S3(TraceCategory::Bench, "bench.compile", OpIds[I]);
        Ks[I] = E.compile(Sched);
      } else {
        Ks[I] = E.optimize(Src);
      }
      OptimizeUs += usSince(T0);
      Ok = usable(Ks[I]);
    } catch (const std::exception &Ex) {
      std::fprintf(stderr, "optimize %s: %s\n", P.Programs[I].Name.c_str(),
                   Ex.what());
      Ok = false;
    }
    T.record(Ok);
  }
  for (int Rep = 0; Rep < RunsPerPass; ++Rep)
    for (size_t I = 0; I < P.Programs.size(); ++I) {
      if (!Ks[I])
        continue;
      const KernelGroup &G = P.Groups[P.Programs[I].Group];
      size_t Set = size_t(Pass + Rep) % G.Inputs.size();
      double Us = 0;
      bool Ok = false;
      try {
        Ok = runChecked(Ks[I], G, Set, Bufs[P.Programs[I].Group],
                        Ref[I][Set], OpIds[I], Us);
      } catch (const std::exception &Ex) {
        std::fprintf(stderr, "run %s: %s\n", P.Programs[I].Name.c_str(),
                     Ex.what());
      }
      T.record(Ok);
      R.RunUs[I].push_back(Us);
      RunUs += Us;
    }
  if (!Traced)
    R.OptimizeMs.push_back(OptimizeUs / 1000.0);
  (Traced ? R.PassUsTraced : R.PassUsUntraced).push_back(OptimizeUs + RunUs);
  if (R.Kernels.empty())
    R.Kernels = std::move(Ks);
}

/// The served draw order: a deck holding each program a fixed number of
/// times, reshuffled from the workload seed on every pass through it. The
/// mix is the same for every seed; only the order changes.
///
/// The skewed deck is a synthetic Zipf popularity with exponent 1, the
/// classic form of the Zipf-like request popularity Breslau et al. measured
/// at web caches (INFOCOM 1999): of N programs, the one of rank r (from 1)
/// appears round(N / r) times, so the least popular appears once per deck.
/// Ranks go by variant position, then kernel: the reference (A) variant of
/// every kernel first, then the first rewrite (B), then the second
/// (NPBench), kernels in pool order within each.
std::vector<size_t> drawDeck(const Pool &P, bool Skewed) {
  size_t N = P.Programs.size();
  std::vector<size_t> Order;
  for (size_t V = 0; Order.size() < N; ++V)
    for (const KernelGroup &G : P.Groups)
      if (V < G.Programs.size())
        Order.push_back(G.Programs[V]);
  if (!Skewed)
    return Order;
  std::vector<size_t> Deck;
  for (size_t R = 1; R <= N; ++R)
    Deck.insert(Deck.end(), size_t(std::lround(double(N) / double(R))),
                Order[R - 1]);
  return Deck;
}

/// Closed-loop served traffic, run in bursts between direct passes. Each
/// operation is Server::optimize -> submit on fresh buffers -> wait; its
/// latency runs from the optimize call to the future's completion.
class ServeLoop {
public:
  ServeLoop(Setup &S, const Oracle &Ref, const WorkloadSpec &W, uint64_t Seed,
            OpLog &Ops, Tally &T)
      : P(S.P), Srv(*S.Server), Ref(Ref), Ops(Ops), T(T),
        BaseDeck(drawDeck(S.P, W.SkewedDraw)),
        DeckRng(deriveSeed(Seed, 0xD5A7)) {}

  /// Serves from ServeClients threads for \p Seconds; operations in flight
  /// at the end complete and count.
  void burst(double Seconds) {
    int64_t Hits0 = statsCounter("Engine.PlanCacheHits");
    int64_t Miss0 = statsCounter("Engine.PlanCacheMisses");
    int64_t Batched0 = statsCounter("Serve.BatchedRuns");
    std::vector<std::vector<double>> Lat(ServeClients);
    auto Start = Clock::now();
    auto End = Start + std::chrono::duration<double>(Seconds);
    std::vector<std::thread> Clients;
    for (int C = 0; C < ServeClients; ++C)
      Clients.emplace_back([this, End, &Lat, C] {
        while (Clock::now() < End)
          operation(Lat[C]);
      });
    for (std::thread &Th : Clients)
      Th.join();
    WallS += usSince(Start) / 1e6;
    for (auto &L : Lat)
      LatencyUs.insert(LatencyUs.end(), L.begin(), L.end());
    Hits += statsCounter("Engine.PlanCacheHits") - Hits0;
    Misses += statsCounter("Engine.PlanCacheMisses") - Miss0;
    BatchedRuns += statsCounter("Serve.BatchedRuns") - Batched0;
  }

  std::vector<double> LatencyUs;
  double WallS = 0;
  int64_t Hits = 0, Misses = 0, BatchedRuns = 0;

private:
  size_t nextDraw(size_t &Set) {
    std::lock_guard<std::mutex> Lock(DeckMutex);
    if (Cursor == Deck.size()) {
      Deck = BaseDeck;
      DeckRng.shuffle(Deck);
      Cursor = 0;
      ++Round;
    }
    size_t Inputs = P.Groups[P.Programs[Deck[Cursor]].Group].Inputs.size();
    Set = (Cursor + Round) % Inputs;
    return Deck[Cursor++];
  }

  void operation(std::vector<double> &Lat) {
    size_t Set = 0;
    size_t I = nextDraw(Set);
    const KernelGroup &G = P.Groups[P.Programs[I].Group];
    ArgBuffers Buf = makeArgs(G);
    loadInputs(G, Set, Buf);
    uint64_t Op = Ops.add({OpTag::Served, I});
    bool Ok = false;
    try {
      RunStatus St;
      auto T0 = Clock::now();
      {
        TraceSpan Span(TraceCategory::Bench, "bench.s2r", Op);
        Kernel K;
        {
          TraceSpan S1(TraceCategory::Bench, "bench.serve_optimize", Op);
          K = Srv.optimize(P.Programs[I].Source);
        }
        std::future<RunStatus> F;
        {
          TraceSpan S2(TraceCategory::Bench, "bench.submit", Op);
          F = Srv.submit(K, Buf.Binding);
        }
        TraceSpan S3(TraceCategory::Bench, "bench.await", Op);
        St = F.get();
      }
      Lat.push_back(usSince(T0));
      Ok = St.ok() && outputsMatch(Buf.Arrays, Ref[I][Set]);
    } catch (const std::exception &Ex) {
      std::fprintf(stderr, "serve %s: %s\n", P.Programs[I].Name.c_str(),
                   Ex.what());
    }
    T.record(Ok);
  }

  const Pool &P;
  serve::Server &Srv;
  const Oracle &Ref;
  OpLog &Ops;
  Tally &T;
  const std::vector<size_t> BaseDeck;
  std::mutex DeckMutex;
  std::vector<size_t> Deck;
  size_t Cursor = 0, Round = 0;
  Rng DeckRng;
};

/// The timed part of a run: direct passes alternate with served bursts
/// for \p Seconds, the bursts sized so served traffic takes 1 - DirectShare
/// of the time. Interleaving makes both kinds of metric sample the same
/// stretch of machine time. Traced runs alternate recorder-off and
/// recorder-on passes (at least two of each) so the recorder's overhead is
/// measured in-process; served bursts are always recorded.
void timedPhases(Setup &S, const Oracle &Ref, const WorkloadSpec &W,
                 double Seconds, bool Trace, OpLog &Ops, Tally &T,
                 DirectResult &D, ServeLoop &Served) {
  const Pool &P = S.P;
  D.RunUs.resize(P.Programs.size());
  std::vector<ArgBuffers> Bufs;
  for (const KernelGroup &G : P.Groups)
    Bufs.push_back(makeArgs(G));
  TraceRecorder &Rec = TraceRecorder::instance();
  double ServePerDirect = (1.0 - W.DirectShare) / W.DirectShare;
  auto End = Clock::now() + std::chrono::duration<double>(Seconds);
  int MinPasses = Trace ? 4 : 1;
  for (int Pass = 0; Pass < MinPasses || Clock::now() < End; ++Pass) {
    bool Traced = Trace && Pass % 2 == 1;
    if (Trace)
      Traced ? Rec.enable(TraceCapacity) : Rec.disable();
    auto T0 = Clock::now();
    directPass(P, Ref, S.Db, Pass, Traced, Bufs, Ops, T, D);
    if (Trace)
      Rec.enable(TraceCapacity);
    Served.burst(usSince(T0) / 1e6 * ServePerDirect);
  }
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Rows;
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Rows.push_back({Name, {Value, Unit}});
  }
};

/// A metric that is not a finite number is a defect of the benchmark,
/// not a measurement: it prints as 0 and the run is marked incorrect.
void printResult(bool Correct, const Tally &T, const Metrics &M) {
  for (const auto &Row : M.Rows)
    if (!std::isfinite(Row.second.first)) {
      std::fprintf(stderr, "metric %s is not finite\n", Row.first.c_str());
      Correct = false;
    }
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") + ", \"attempted\": " +
                    std::to_string(T.Attempted.load()) + ", \"failed\": " +
                    std::to_string(T.Failed.load()) + ", \"metrics\": {";
  char Num[64];
  for (size_t I = 0; I < M.Rows.size(); ++I) {
    double V = M.Rows[I].second.first;
    std::snprintf(Num, sizeof(Num), "%.17g", std::isfinite(V) ? V : 0.0);
    Out += (I ? ", \"" : "\"") + M.Rows[I].first + "\": {\"value\": " + Num +
           ", \"unit\": \"" + M.Rows[I].second.second + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

//===----------------------------------------------------------------------===//
// Per-layer attribution (traced runs)
//===----------------------------------------------------------------------===//

/// A closed Bench span recovered from the flight recorder.
struct Span {
  uint16_t Name;
  uint64_t Op;
  double Us;
};

/// Pairs the recorder's Bench Begin/End events per thread (claim order is
/// emission order on each thread) into spans.
std::vector<Span> benchSpans(size_t &Emitted) {
  TraceRecorder &Rec = TraceRecorder::instance();
  Emitted = Rec.emittedCount();
  std::vector<TraceEvent> Events = Rec.snapshot();
  std::unordered_map<uint32_t, std::vector<const TraceEvent *>> Open;
  std::vector<Span> Spans;
  for (const TraceEvent &E : Events) {
    if (E.Category != TraceCategory::Bench)
      continue;
    std::vector<const TraceEvent *> &Stack = Open[E.Tid];
    if (E.Phase == TracePhase::Begin) {
      Stack.push_back(&E);
    } else if (E.Phase == TracePhase::End && !Stack.empty()) {
      const TraceEvent *B = Stack.back();
      Stack.pop_back();
      Spans.push_back({B->NameId, B->Arg, double(E.StartNs - B->StartNs) / 1e3});
    }
  }
  return Spans;
}

/// Per-program span durations of one layer: Durations[Program] lists every
/// span of that name whose operation ran on the pool with kind \p K.
std::vector<std::vector<double>> spansByProgram(const std::vector<Span> &Spans,
                                                const char *Name, OpTag::Kind K,
                                                size_t N, const OpLog &Ops) {
  uint16_t Id = traceNameId(Name);
  std::vector<std::vector<double>> D(N);
  for (const Span &S : Spans)
    if (S.Name == Id) {
      OpTag T = Ops.at(S.Op);
      if (T.K == K)
        D[T.Program].push_back(S.Us);
    }
  return D;
}

std::vector<double> spansNamed(const std::vector<Span> &Spans,
                               const char *Name) {
  uint16_t Id = traceNameId(Name);
  std::vector<double> D;
  for (const Span &S : Spans)
    if (S.Name == Id)
      D.push_back(S.Us);
  return D;
}

std::vector<double> medians(const std::vector<std::vector<double>> &D) {
  std::vector<double> M;
  for (const auto &V : D)
    M.push_back(med(V));
  return M;
}

/// BLAS call nodes among \p Nodes and their descendants.
size_t countBlasCalls(const std::vector<NodePtr> &Nodes) {
  size_t N = 0;
  for (const NodePtr &Node : Nodes)
    if (Node->kind() == NodeKind::Call)
      ++N;
    else if (const Loop *L = dynCast<Loop>(Node))
      N += countBlasCalls(L->body());
  return N;
}

/// Top-level nests of \p Seeded whose scheduled form, marks included,
/// differs from \p Unseeded's: the nests a database recipe changed, since
/// an engine without a database gives every other nest the default
/// parallel recipe. Both come from the same normalized source, so the
/// nests line up by position.
size_t changedNests(const Program &Seeded, const Program &Unseeded) {
  const auto &S = Seeded.topLevel(), &U = Unseeded.topLevel();
  if (S.size() != U.size())
    return S.size();
  size_t N = 0;
  for (size_t I = 0; I < S.size(); ++I)
    if (structuralHashWithMarks(S[I]) != structuralHashWithMarks(U[I]))
      ++N;
  return N;
}

struct SeedStats {
  double Seconds = 0;
  int64_t Candidates = 0, SimHits = 0, SimMisses = 0;
};

/// The other pool's programs, optimized on a cold engine and run SideRuns
/// times each, checked — so every workload's traced run reports the run
/// time of all 48 programs and the simulated-vs-measured ranking of the 45
/// PolyBench variants.
struct SidePass {
  Pool P;
  std::vector<Kernel> Kernels;
};

SidePass sidePass(bool PolyBench, uint64_t Seed,
                  const std::shared_ptr<TransferTuningDatabase> &Db,
                  OpLog &Ops, Tally &T) {
  SidePass S;
  S.P = PolyBench ? polyBenchPool() : cloudscPool();
  generateInputs(S.P, Seed, 1);
  Oracle Ref = computeOracle(S.P);
  Engine E(directEngineOptions(Db, DirectThreads));
  S.Kernels.resize(S.P.Programs.size());
  for (size_t I = 0; I < S.P.Programs.size(); ++I) {
    uint64_t Op = Ops.add({OpTag::Side, I});
    const KernelGroup &G = S.P.Groups[S.P.Programs[I].Group];
    ArgBuffers Buf = makeArgs(G);
    try {
      S.Kernels[I] = E.optimize(S.P.Programs[I].Source);
      T.record(usable(S.Kernels[I]));
      for (int R = 0; R < SideRuns; ++R) {
        double Us = 0;
        T.record(runChecked(S.Kernels[I], G, 0, Buf, Ref[I][0], Op, Us));
      }
    } catch (const std::exception &Ex) {
      std::fprintf(stderr, "side %s: %s\n", S.P.Programs[I].Name.c_str(),
                   Ex.what());
      T.record(false);
    }
  }
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  const WorkloadSpec &W = *A.Spec;
  Tally T;
  OpLog Ops;
  Metrics M;
  bool Correct = true;

  try {
    // --- Set-up, timed SetupRepeats times; the last one is kept. --------
    std::vector<double> SetupS;
    std::unique_ptr<Setup> S;
    for (int I = 0; I < SetupRepeats; ++I) {
      S.reset();
      auto T0 = Clock::now();
      S = makeSetup(W);
      SetupS.push_back(usSince(T0) / 1e6);
    }
    Pool &P = S->P;
    generateInputs(P, A.Seed, W.InputSets);

    // --- Seeding: the paper's offline step, 15 PolyBench A variants. -----
    SeedStats Seed;
    {
      std::vector<Program> AVariants;
      for (PolyBenchKernel K : allPolyBenchKernels())
        AVariants.push_back(buildPolyBench(K, VariantKind::A));
      Engine Seeder(directEngineOptions(S->Db, DirectThreads));
      int64_t C0 = statsCounter("Evaluator.Candidates");
      int64_t H0 = statsCounter("SimCache.Hits");
      int64_t M0 = statsCounter("SimCache.Misses");
      auto T0 = Clock::now();
      for (const Program &AV : AVariants)
        Seeder.seedDatabase(AV);
      Seed.Seconds = usSince(T0) / 1e6;
      Seed.Candidates = statsCounter("Evaluator.Candidates") - C0;
      Seed.SimHits = statsCounter("SimCache.Hits") - H0;
      Seed.SimMisses = statsCounter("SimCache.Misses") - M0;
    }

    // --- Oracle and the cross-checks that need no program under test. ---
    Oracle Ref = computeOracle(P);
    for (const KernelGroup &G : P.Groups)
      for (size_t Set = 0; Set < G.Inputs.size(); ++Set) {
        for (size_t V = 1; V < G.Programs.size(); ++V)
          T.record(outputsMatch(Ref[G.Programs[V]][Set],
                                Ref[G.Programs[0]][Set]));
        if (G.Name == "gemm")
          T.record(
              outputsMatch(referenceGemm(G, Set), Ref[G.Programs[0]][Set]));
      }

    if (A.Trace)
      TraceRecorder::instance().enable(TraceCapacity);

    // --- Timed phases. ---------------------------------------------------
    DirectResult D;
    ServeLoop Sv(*S, Ref, W, A.Seed, Ops, T);
    timedPhases(*S, Ref, W, A.Seconds, A.Trace, Ops, T, D, Sv);

    if (!A.Trace) {
      // Per-kernel variant spread from each program's median run time.
      std::vector<double> RunMed = medians(D.RunUs);
      std::vector<double> Spreads;
      for (const KernelGroup &G : P.Groups) {
        double Lo = INFINITY, Hi = 0;
        for (size_t I : G.Programs) {
          Lo = std::min(Lo, RunMed[I]);
          Hi = std::max(Hi, RunMed[I]);
        }
        Spreads.push_back(Hi / Lo);
      }
      M.add("setup_s", med(SetupS), "s");
      M.add("seed_s", Seed.Seconds, "s");
      M.add("optimize_ms", med(D.OptimizeMs), "ms");
      M.add("run_ms", geometricMean(RunMed) / 1000.0, "ms");
      M.add("variant_spread", geometricMean(Spreads), "ratio");
      M.add("s2r_ops_per_s", double(Sv.LatencyUs.size()) / Sv.WallS, "ops/s");
      M.add("s2r_p50_ms", quantile(Sv.LatencyUs, 0.50) / 1000.0, "ms");
      M.add("s2r_p99_ms", quantile(Sv.LatencyUs, 0.99) / 1000.0, "ms");
      M.add("peak_rss_mb", peakRssMb(), "MB");
      std::fprintf(stderr,
                   "perfbench %s seed %llu: %zu direct passes, %zu served "
                   "ops, %lld attempted, %lld failed\n",
                   W.Name, (unsigned long long)A.Seed, D.OptimizeMs.size(),
                   Sv.LatencyUs.size(), (long long)T.Attempted.load(),
                   (long long)T.Failed.load());
    } else {
      // --- Extra attribution work, then the spans. ----------------------
      SidePass Side = sidePass(!W.PolyBench, A.Seed, S->Db, Ops, T);
      const Pool &PB = W.PolyBench ? P : Side.P;
      const std::vector<Kernel> &PBKernels =
          W.PolyBench ? D.Kernels : Side.Kernels;
      std::vector<double> SimSeconds;
      SimOptions Sim;
      for (size_t I = 0; I < PB.Programs.size(); ++I) {
        uint64_t Op = Ops.add({W.PolyBench ? OpTag::Direct : OpTag::Side, I});
        TraceSpan Span(TraceCategory::Bench, "bench.simulate", Op);
        SimSeconds.push_back(
            simulateProgram(PBKernels[I].program(), Sim).Seconds);
      }
      TraceRecorder::instance().disable();
      size_t Emitted = 0;
      std::vector<Span> Spans = benchSpans(Emitted);
      if (!A.TraceFile.empty() &&
          !TraceRecorder::instance().dumpTrace(A.TraceFile)) {
        std::fprintf(stderr, "cannot write trace %s\n", A.TraceFile.c_str());
        Correct = false;
      }
      if (Emitted > TraceCapacity) {
        std::fprintf(stderr, "trace ring wrapped: %zu events\n", Emitted);
        Correct = false;
      }

      size_t N = P.Programs.size();
      auto Norm = medians(spansByProgram(Spans, "bench.normalize",
                                         OpTag::Direct, N, Ops));
      auto Sched = medians(spansByProgram(Spans, "bench.schedule",
                                          OpTag::Direct, N, Ops));
      auto Comp = medians(spansByProgram(Spans, "bench.compile",
                                         OpTag::Direct, N, Ops));
      std::vector<double> Self(N);
      for (size_t I = 0; I < N; ++I)
        Self[I] = Sched[I] - Norm[I];
      // The per-layer medians, summed over the pool, should add up to the
      // untraced passes' Engine::optimize total (acct.optimize_share).
      double LayerSum = 0;
      for (size_t I = 0; I < N; ++I)
        LayerSum += Norm[I] + Self[I] + Comp[I];

      // Run times of all 48 programs, from the bench.run spans.
      auto OwnRun = medians(spansByProgram(Spans, "bench.run", OpTag::Direct,
                                           N, Ops));
      auto SideRun = medians(spansByProgram(Spans, "bench.run", OpTag::Side,
                                            Side.P.Programs.size(), Ops));
      std::map<std::string, double> RunRows;
      for (size_t I = 0; I < N; ++I)
        RunRows[P.Programs[I].Name] = OwnRun[I];
      for (size_t I = 0; I < Side.P.Programs.size(); ++I)
        RunRows[Side.P.Programs[I].Name] = SideRun[I];
      const std::vector<double> &PBRun = W.PolyBench ? OwnRun : SideRun;

      // Normalized forms of the workload's pool, and what scheduling did
      // to them: BLAS calls in the scheduled programs, and nests whose
      // schedule differs from an engine's without a database.
      double DistinctForms = 0, Nests = 0, Blas = 0, Transfers = 0;
      Engine Unseeded(directEngineOptions(
          std::make_shared<TransferTuningDatabase>(), DirectThreads));
      for (const KernelGroup &G : P.Groups) {
        std::set<uint64_t> Forms;
        for (size_t I : G.Programs) {
          Program Nm = normalize(P.Programs[I].Source);
          Forms.insert(structuralHash(Nm));
          Nests += double(Nm.topLevel().size());
          if (!D.Kernels[I])
            continue;
          const Program &Scheduled = D.Kernels[I].program();
          Blas += double(countBlasCalls(Scheduled.topLevel()));
          Transfers += double(changedNests(
              Scheduled, Unseeded.schedule(P.Programs[I].Source)));
        }
        DistinctForms += double(Forms.size());
      }
      double Specialized = 0, Parallel = 0, MultiStmt = 0;
      for (const Kernel &K : D.Kernels) {
        ExecPlan::Stats St = K.plan().stats();
        Specialized += double(St.SpecializedKernels);
        Parallel += double(St.ParallelLoops);
        MultiStmt += double(St.MultiStmtInnerLoops);
      }
      std::vector<double> SimUs = spansNamed(Spans, "bench.simulate");

      // Served operation: optimize span + the server's three stages should
      // add up to the operation's latency (acct.serve_share), on means.
      serve::Server &Srv = *S->Server;
      using Stage = serve::Server::Stage;
      double StageCount = double(Srv.stageCount(Stage::Run));
      double StageMeanUs =
          StageCount > 0
              ? (Srv.stageSumUs(Stage::QueueWait) +
                 Srv.stageSumUs(Stage::BatchWait) +
                 Srv.stageSumUs(Stage::Run)) /
                    StageCount
              : 0.0;
      double S2rMean = meanOf(spansNamed(Spans, "bench.s2r"));
      double ServeOptMean = meanOf(spansNamed(Spans, "bench.serve_optimize"));

      M.add("normalize.us", med(Norm), "us");
      M.add("normalize.distinct_forms", DistinctForms, "count");
      M.add("normalize.nests", Nests, "count");
      M.add("sched.self_us", med(Self), "us");
      M.add("sched.blas_calls", Blas, "count");
      M.add("sched.transfer_hits", Transfers, "count");
      M.add("search.candidates_per_s", double(Seed.Candidates) / Seed.Seconds,
            "1/s");
      M.add("search.simcache_hit_rate",
            Seed.SimHits + Seed.SimMisses
                ? double(Seed.SimHits) / double(Seed.SimHits + Seed.SimMisses)
                : 0.0,
            "ratio");
      M.add("machine.simulate_us", med(SimUs), "us");
      M.add("machine.rank_tau", kendallTauB(SimSeconds, PBRun), "tau");
      M.add("api.compile_us", med(Comp), "us");
      M.add("api.plan_cache_hit_rate",
            Sv.Hits + Sv.Misses ? double(Sv.Hits) / double(Sv.Hits + Sv.Misses)
                                : 0.0,
            "ratio");
      M.add("exec.specialized_kernels", Specialized, "count");
      M.add("exec.parallel_loops", Parallel, "count");
      M.add("exec.multistmt_inner_loops", MultiStmt, "count");
      for (auto &KV : RunRows)
        M.add("exec.run_us." + KV.first, KV.second, "us");
      M.add("serve.queue_wait_us.p50",
            Srv.stageQuantileUs(Stage::QueueWait, 0.5), "us");
      M.add("serve.queue_wait_us.p99",
            Srv.stageQuantileUs(Stage::QueueWait, 0.99), "us");
      M.add("serve.batch_wait_us.p50",
            Srv.stageQuantileUs(Stage::BatchWait, 0.5), "us");
      M.add("serve.run_us.p50", Srv.stageQuantileUs(Stage::Run, 0.5), "us");
      M.add("serve.run_us.p99", Srv.stageQuantileUs(Stage::Run, 0.99), "us");
      M.add("serve.batched_runs", double(Sv.BatchedRuns), "count");
      M.add("acct.optimize_share", LayerSum / (med(D.OptimizeMs) * 1000.0),
            "ratio");
      M.add("acct.serve_share",
            S2rMean > 0 ? (ServeOptMean + StageMeanUs) / S2rMean : 0.0,
            "ratio");
      M.add("trace.overhead_ratio",
            med(D.PassUsTraced) / med(D.PassUsUntraced), "ratio");
      std::fprintf(stderr,
                   "perfbench %s seed %llu (traced): %zu bench spans, %zu "
                   "events, %lld attempted, %lld failed\n",
                   W.Name, (unsigned long long)A.Seed, Spans.size(), Emitted,
                   (long long)T.Attempted.load(),
                   (long long)T.Failed.load());
    }
    S->Server->drain();
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "perfbench: %s\n", Ex.what());
    return 1;
  }
  printResult(Correct, T, M);
  return 0;
}
