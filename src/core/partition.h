// Tensor partitioning (paper Section IV-D).
//
// A linear op's output elements are split evenly across threads (output
// tensor partitioning, always applicable). Each thread's required input is
// the union of the receptive fields (row supports) of its output elements;
// sending only that sub-tensor is input tensor partitioning, which pays
// off for convolutions whose receptive fields are local. The "without
// partitioning" baseline of Exp#4 ships the whole input tensor to every
// thread and lets each produce one output element at a time.

#pragma once

#include <cstdint>
#include <vector>

#include "core/affine.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppstream {

/// Work descriptor for one thread.
struct ThreadWork {
  size_t row_begin = 0;  // [row_begin, row_end) output elements
  size_t row_end = 0;
  /// Input elements this thread needs (sorted, unique). With input
  /// partitioning only these are shipped; without it, all inputs are.
  std::vector<uint32_t> input_indices;
};

/// Partitioning of one linear op across threads, plus the communication
/// volumes (in input elements) of the three shipping strategies:
///   * no partitioning (paper Exp#4 baseline): each thread receives the
///     whole input tensor for every output element it produces, i.e.
///     rows x input_size;
///   * output partitioning only: each thread receives the whole tensor
///     once and produces its block of output elements (threads x input);
///   * input + output partitioning: each thread receives only the union
///     of its rows' receptive fields (equal to the above for layers with
///     global receptive fields such as Dense — §IV-D).
struct PartitionPlan {
  std::vector<ThreadWork> threads;
  int64_t elements_no_partitioning = 0;
  int64_t elements_output_partitioning = 0;
  int64_t elements_with_input_partitioning = 0;
};

/// Splits `op` across `num_threads` threads.
Result<PartitionPlan> PartitionOp(const IntegerAffineLayer& op,
                                  size_t num_threads);

/// Applies `kernel` homomorphically with the given partitioning on `pool`
/// (the partition comes from PartitionOp over the op the kernel was built
/// from). If `input_partitioning` is set, each thread first materializes
/// its input sub-tensor (modelling the per-thread message of a distributed
/// deployment) and computes from it; otherwise each thread reads the whole
/// input. The two paths produce identical ciphertext outputs, for one-lane
/// ciphertexts and packed words (`lanes` live lanes) alike. `cache` (built
/// via kernel.BuildStageCache on this exact `in`) shares fixed-base tables
/// across all threads; null evaluates without tables.
Result<std::vector<Ciphertext>> ApplyEncryptedPartitioned(
    const PaillierPublicKey& pk, const AffineKernel& kernel,
    const std::vector<Ciphertext>& in, const PartitionPlan& partition,
    bool input_partitioning, ThreadPool* pool,
    const EncryptedStageCache* cache = nullptr, int64_t lanes = 1);

}  // namespace ppstream
