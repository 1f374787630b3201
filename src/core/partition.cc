#include "core/partition.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace ppstream {

Result<PartitionPlan> PartitionOp(const IntegerAffineLayer& op,
                                  size_t num_threads) {
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  const size_t rows = op.rows().size();
  const size_t threads = std::min(num_threads, std::max<size_t>(rows, 1));
  const size_t per_thread = (rows + threads - 1) / threads;

  PartitionPlan plan;
  const int64_t input_elements = op.input_shape().NumElements();
  for (size_t t = 0; t < threads; ++t) {
    ThreadWork work;
    work.row_begin = t * per_thread;
    work.row_end = std::min(rows, work.row_begin + per_thread);
    if (work.row_begin >= work.row_end) break;
    // Union of row supports = the thread's required input sub-tensor.
    std::vector<uint32_t>& indices = work.input_indices;
    for (size_t j = work.row_begin; j < work.row_end; ++j) {
      for (const AffineTerm& term : op.rows()[j].terms) {
        indices.push_back(term.input_index);
      }
    }
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()),
                  indices.end());
    plan.elements_with_input_partitioning +=
        static_cast<int64_t>(indices.size());
    plan.elements_output_partitioning += input_elements;
    plan.elements_no_partitioning +=
        static_cast<int64_t>(work.row_end - work.row_begin) * input_elements;
    plan.threads.push_back(std::move(work));
  }
  return plan;
}

Result<std::vector<Ciphertext>> ApplyEncryptedPartitioned(
    const PaillierPublicKey& pk, const AffineKernel& kernel,
    const std::vector<Ciphertext>& in, const PartitionPlan& partition,
    bool input_partitioning, ThreadPool* pool,
    const EncryptedStageCache* cache, int64_t lanes) {
  if (in.size() != kernel.num_inputs()) {
    return Status::InvalidArgument("partitioned apply: input size mismatch");
  }
  std::vector<Ciphertext> out(kernel.num_rows());
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mutex;

  auto run_thread = [&](size_t t) {
    const ThreadWork& work = partition.threads[t];
    Result<std::vector<Ciphertext>> slice = Status::OK();
    if (input_partitioning) {
      // Materialize the thread's sub-tensor and remap row indices into it —
      // exactly the message a distributed worker would receive.
      std::vector<Ciphertext> sub;
      sub.reserve(work.input_indices.size());
      for (uint32_t idx : work.input_indices) sub.push_back(in[idx]);
      slice = kernel.ApplyRows(pk, sub, lanes, work.row_begin, work.row_end,
                               cache, &work.input_indices);
    } else {
      // Whole-tensor path (the Exp#4 baseline).
      slice = kernel.ApplyRows(pk, in, lanes, work.row_begin, work.row_end,
                               cache);
    }
    if (!slice.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error.ok()) first_error = slice.status();
      failed = true;
      return;
    }
    for (size_t j = work.row_begin; j < work.row_end; ++j) {
      out[j] = std::move(slice.value()[j - work.row_begin]);
    }
  };

  if (pool != nullptr && partition.threads.size() > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(partition.threads.size());
    for (size_t t = 0; t < partition.threads.size(); ++t) {
      futures.push_back(pool->Submit([&, t] { run_thread(t); }));
    }
    for (auto& f : futures) f.get();
  } else {
    for (size_t t = 0; t < partition.threads.size(); ++t) run_thread(t);
  }

  if (failed) return first_error;
  return out;
}

}  // namespace ppstream
