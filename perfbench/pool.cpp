//===- perfbench/pool.cpp - Programs, seeded inputs and the oracle --------===//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pool.h"

#include "cloudsc/Cloudsc.h"
#include "exec/DataEnv.h"
#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "support/Hashing.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

using namespace daisy;

namespace perfbench {

namespace {

/// Registers \p Prog as a variant of group \p GroupName (created on first
/// use) and checks it declares the same observable arrays as the group's
/// first variant: the cross-variant checks and the shared inputs rely on it.
void addProgram(Pool &P, const std::string &GroupName, std::string Name,
                Program Prog) {
  if (P.Groups.empty() || P.Groups.back().Name != GroupName) {
    KernelGroup G;
    G.Name = GroupName;
    for (const ArrayDecl &A : Prog.arrays())
      if (!A.Transient) {
        G.Arrays.push_back(A.Name);
        G.Sizes.push_back(
            static_cast<size_t>(std::max<int64_t>(A.elementCount(), 1)));
      }
    P.Groups.push_back(std::move(G));
  }
  KernelGroup &G = P.Groups.back();
  size_t Observable = 0;
  for (const ArrayDecl &A : Prog.arrays())
    if (!A.Transient)
      ++Observable;
  if (Observable != G.Arrays.size())
    throw std::runtime_error(Name + ": observable arrays differ from " +
                             G.Name + "'s first variant");
  for (size_t I = 0; I < G.Arrays.size(); ++I) {
    const ArrayDecl *A = Prog.findArray(G.Arrays[I]);
    if (!A || A->Transient ||
        static_cast<size_t>(std::max<int64_t>(A->elementCount(), 1)) !=
            G.Sizes[I])
      throw std::runtime_error(Name + ": array '" + G.Arrays[I] +
                               "' differs from " + G.Name +
                               "'s first variant");
  }
  G.Programs.push_back(P.Programs.size());
  P.Programs.push_back({std::move(Name), P.Groups.size() - 1, std::move(Prog)});
}

/// Binds every array of \p G to the matching storage in \p Arrays.
ArgBinding bindAll(const KernelGroup &G,
                   std::vector<std::vector<double>> &Arrays) {
  ArgBinding B;
  for (size_t I = 0; I < G.Arrays.size(); ++I)
    B.bind(G.Arrays[I], Arrays[I]);
  return B;
}

} // namespace

Pool polyBenchPool() {
  Pool P;
  const std::pair<VariantKind, const char *> Variants[] = {
      {VariantKind::A, "A"},
      {VariantKind::B, "B"},
      {VariantKind::NPBench, "npbench"}};
  for (PolyBenchKernel K : allPolyBenchKernels())
    for (const auto &V : Variants)
      addProgram(P, polyBenchName(K), polyBenchName(K) + "." + V.second,
                 buildPolyBench(K, V.first));
  return P;
}

Pool cloudscPool() {
  Pool P;
  CloudscConfig Config;
  const std::pair<CloudscVariant, const char *> Variants[] = {
      {CloudscVariant::Fortran, "fortran"},
      {CloudscVariant::C, "c"},
      {CloudscVariant::DaCe, "dace"}};
  for (const auto &V : Variants)
    addProgram(P, "cloudsc", std::string("cloudsc.") + V.second,
               buildCloudsc(Config, V.first));
  return P;
}

void generateInputs(Pool &P, uint64_t Seed, size_t NumSets) {
  for (KernelGroup &G : P.Groups) {
    G.Inputs.assign(NumSets, {});
    for (size_t S = 0; S < NumSets; ++S) {
      G.Inputs[S].resize(G.Arrays.size());
      for (size_t A = 0; A < G.Arrays.size(); ++A) {
        HashCombiner H(Seed);
        H.combine(fnv1a(G.Name));
        H.combine(fnv1a(G.Arrays[A]));
        H.combine(S);
        Rng R(H.value());
        std::vector<double> &Values = G.Inputs[S][A];
        Values.resize(G.Sizes[A]);
        for (double &V : Values)
          V = 0.1 + 0.9 * R.nextDouble();
      }
    }
  }
}

ArgBuffers makeArgs(const KernelGroup &G) {
  ArgBuffers Args;
  Args.Arrays.resize(G.Arrays.size());
  for (size_t I = 0; I < G.Arrays.size(); ++I)
    Args.Arrays[I].resize(G.Sizes[I]);
  Args.Binding = bindAll(G, Args.Arrays);
  return Args;
}

void loadInputs(const KernelGroup &G, size_t Set, ArgBuffers &Args) {
  for (size_t I = 0; I < G.Arrays.size(); ++I)
    std::copy(G.Inputs[Set][I].begin(), G.Inputs[Set][I].end(),
              Args.Arrays[I].begin());
}

Oracle computeOracle(const Pool &P) {
  Oracle Ref(P.Programs.size());
  for (size_t Index = 0; Index < P.Programs.size(); ++Index) {
    const PoolProgram &Prog = P.Programs[Index];
    const KernelGroup &G = P.Groups[Prog.Group];
    Ref[Index].resize(G.Inputs.size());
    for (size_t S = 0; S < G.Inputs.size(); ++S) {
      DataEnv Env(Prog.Source);
      for (size_t A = 0; A < G.Arrays.size(); ++A)
        Env.buffer(G.Arrays[A]) = G.Inputs[S][A];
      interpretTreeWalk(Prog.Source, Env);
      Ref[Index][S].resize(G.Arrays.size());
      for (size_t A = 0; A < G.Arrays.size(); ++A)
        Ref[Index][S][A] = Env.buffer(G.Arrays[A]);
    }
  }
  return Ref;
}

bool outputsMatch(const std::vector<std::vector<double>> &Got,
                  const std::vector<std::vector<double>> &Ref) {
  if (Got.size() != Ref.size())
    return false;
  for (size_t A = 0; A < Ref.size(); ++A) {
    if (Got[A].size() != Ref[A].size())
      return false;
    double Scale = 0.0, MaxDiff = 0.0;
    for (size_t I = 0; I < Ref[A].size(); ++I) {
      if (!std::isfinite(Got[A][I]) || !std::isfinite(Ref[A][I]))
        return false;
      Scale = std::max(Scale, std::fabs(Ref[A][I]));
      MaxDiff = std::max(MaxDiff, std::fabs(Got[A][I] - Ref[A][I]));
    }
    if (MaxDiff > RelTol * Scale)
      return false;
  }
  return true;
}

std::vector<std::vector<double>> referenceGemm(const KernelGroup &G,
                                               size_t Set) {
  std::vector<std::vector<double>> Out = G.Inputs[Set];
  auto Slot = [&](const char *Name) {
    auto It = std::find(G.Arrays.begin(), G.Arrays.end(), Name);
    if (It == G.Arrays.end())
      throw std::runtime_error(std::string("gemm has no array ") + Name);
    return static_cast<size_t>(It - G.Arrays.begin());
  };
  const std::vector<double> &A = Out[Slot("A")], &B = Out[Slot("B")];
  std::vector<double> &C = Out[Slot("C")];
  size_t N = static_cast<size_t>(std::llround(std::sqrt(double(C.size()))));
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      double Acc = C[I * N + J] * 1.2;
      for (size_t K = 0; K < N; ++K)
        Acc = Acc + 1.5 * (A[I * N + K] * B[K * N + J]);
      C[I * N + J] = Acc;
    }
  return Out;
}

} // namespace perfbench
