//===- perfbench/pool.h - Programs, seeded inputs and the oracle -*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's program pools (PolyBench A/B/NPBench variants and the
/// CLOUDSC proxy variants), the inputs generated from the workload seed,
/// and the correctness oracle: a tree-walk of each *unscheduled* source on
/// the same inputs. The program under test only ever sees the generated
/// buffers, through an ArgBinding.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_POOL_H
#define PERFBENCH_POOL_H

#include "api/Kernel.h"
#include "ir/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Relative tolerance of every output check: max |got - ref| over an array
/// must stay within RelTol * max |ref| of that array. BLAS lifting and
/// variant restructuring reorder sums, which moves results by a few ulps;
/// RelTol leaves that room and still catches any wrong element.
constexpr double RelTol = 1e-9;

/// One source program of a pool.
struct PoolProgram {
  std::string Name;   ///< Row name, e.g. "gemm.A", "cloudsc.dace".
  size_t Group = 0;   ///< Index of its kernel in Pool::Groups.
  daisy::Program Source;
};

/// The variants of one kernel: they declare the same observable arrays and
/// must compute the same results.
struct KernelGroup {
  std::string Name;                  ///< "gemm", "cloudsc".
  std::vector<size_t> Programs;      ///< Indices into Pool::Programs.
  std::vector<std::string> Arrays;   ///< Observable (non-transient) arrays.
  std::vector<size_t> Sizes;         ///< Element count per array.
  /// Inputs[S][A]: generated contents of array A in input set S.
  std::vector<std::vector<std::vector<double>>> Inputs;
};

struct Pool {
  std::vector<PoolProgram> Programs;
  std::vector<KernelGroup> Groups;
};

/// The 45 PolyBench programs (15 kernels x A/B/NPBench) at the frontend's
/// default sizes.
Pool polyBenchPool();

/// The three CLOUDSC proxy variants (Fortran, C, DaCe) at the default
/// configuration (NPROMA 128, KLEV 137, NBLOCKS 4).
Pool cloudscPool();

/// Fills \p NumSets input sets per kernel group from \p Seed. Values are
/// uniform in [0.1, 1.0): positive and away from zero, so divisions and
/// logarithms in the kernels stay finite.
void generateInputs(Pool &P, uint64_t Seed, size_t NumSets);

/// Per-thread argument storage of one program: working copies of its
/// group's arrays, bound by name. Binding points into Arrays' element
/// storage, which a move keeps in place and a copy would not.
struct ArgBuffers {
  ArgBuffers() = default;
  ArgBuffers(ArgBuffers &&) = default;
  ArgBuffers &operator=(ArgBuffers &&) = default;
  ArgBuffers(const ArgBuffers &) = delete;
  ArgBuffers &operator=(const ArgBuffers &) = delete;

  std::vector<std::vector<double>> Arrays;
  daisy::ArgBinding Binding;
};

/// Allocates buffers for \p G and binds them.
ArgBuffers makeArgs(const KernelGroup &G);

/// Copies input set \p Set into \p Args (outside any timed region).
void loadInputs(const KernelGroup &G, size_t Set, ArgBuffers &Args);

/// Reference outputs: Ref[Program][Set][Array].
using Oracle = std::vector<std::vector<std::vector<std::vector<double>>>>;

/// Tree-walks every program of \p P (the unscheduled source, the
/// reference semantics) on every input set of its group.
Oracle computeOracle(const Pool &P);

/// True when \p Got matches \p Ref within RelTol on every array and every
/// value is finite.
bool outputsMatch(const std::vector<std::vector<double>> &Got,
                  const std::vector<std::vector<double>> &Ref);

/// The benchmark's own gemm (C = 1.2 C + 1.5 A B, PolyBench's alpha/beta),
/// on the gemm group's input set \p Set. Returns the arrays in group order.
std::vector<std::vector<double>> referenceGemm(const KernelGroup &G,
                                               size_t Set);

} // namespace perfbench

#endif // PERFBENCH_POOL_H
