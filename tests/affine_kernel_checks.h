// Shared checks for the affine kernel (core/affine.h), used by core_test
// (one-lane ciphertexts) and packing_test (packed words): an op whose rows
// produce every kind of weight application, and a runner that drives a
// kernel through every evaluation entry.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/affine.h"
#include "core/partition.h"
#include "nn/layers.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ppstream {

// A Dense op over 12 inputs whose rows produce every kind of weight
// application the kernel can choose (F = 100, so weight k/100 lowers to
// k). Slots 0-8 are tapped by 4+ rows (tabled); slots 9-11 by 3 (not).
// Row applications: 1, 2, 5, 9, 3, 2 (22 of 51 terms).
inline IntegerAffineLayer WeightGroupDenseOp() {
  const std::vector<std::vector<int64_t>> weights = {
      {6, 6, 6, 6, 6, 6, 6, 6, 6, 0, 0, 0},       // fold of 9 tabled
      {9, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5},       // fold without tables
      {7, 7, -7, -7, 300, 0, 0, 0, 0, 0, 0, 0},   // split tabled groups
      {1, 1, 1, 1, 1, 1, -1, -1, -1, 0, 0, 0},    // |w| = 1 groups
      {-6, -6, -6, -6, -6, -6, -6, -6, -6, 3, 3, -1},  // mixed signs
      {-13, -13, -13, -13, -13, -13, -13, -13, -13, -13, 2, 2},
  };
  const std::vector<double> bias = {0, 0, 0.37, 0, -0.42, 0.15};
  DenseLayer dense(12, static_cast<int64_t>(weights.size()));
  for (size_t o = 0; o < weights.size(); ++o) {
    for (size_t i = 0; i < 12; ++i) {
      dense.weights()[static_cast<int64_t>(o * 12 + i)] =
          static_cast<double>(weights[o][i]) / 100.0;
    }
    dense.bias()[static_cast<int64_t>(o)] = bias[o];
  }
  auto op = IntegerAffineLayer::FromLayer(dense, Shape{12}, 100, 1);
  PPS_CHECK_OK(op.status());
  return std::move(op).value();
}

// Runs `kernel` (built from `op`) through every entry on inputs whose
// words carry `lanes` lanes: the whole tensor, the row slice [begin, end),
// the same slice against the sub-tensor of its rows' supports, and the
// partitioned apply over 3 threads with and without input partitioning.
// Every output must equal `want` bit for bit.
inline void ExpectEveryEntryBitExact(
    const PaillierPublicKey& pk, const IntegerAffineLayer& op,
    const AffineKernel& kernel, const std::vector<Ciphertext>& in,
    int64_t lanes, const std::vector<Ciphertext>& want,
    const EncryptedStageCache* cache, size_t begin, size_t end,
    const std::string& what) {
  auto expect_rows = [&](const std::vector<Ciphertext>& got, size_t offset,
                         const std::string& entry) {
    ASSERT_LE(got.size() + offset, want.size()) << what << ", " << entry;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].value.Compare(want[offset + j].value), 0)
          << what << ", " << entry << ", row " << offset + j;
    }
  };
  auto whole = kernel.ApplyRows(pk, in, lanes, 0, kernel.num_rows(), cache);
  ASSERT_TRUE(whole.ok()) << what << ": " << whole.status().ToString();
  ASSERT_EQ(whole.value().size(), want.size());
  expect_rows(whole.value(), 0, "whole");
  auto slice = kernel.ApplyRows(pk, in, lanes, begin, end, cache);
  ASSERT_TRUE(slice.ok()) << what << ": " << slice.status().ToString();
  expect_rows(slice.value(), begin, "slice");
  std::vector<uint32_t> support;
  for (size_t j = begin; j < end; ++j) {
    for (const AffineTerm& t : op.rows()[j].terms) {
      support.push_back(t.input_index);
    }
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  std::vector<Ciphertext> sub;
  for (uint32_t slot : support) sub.push_back(in[slot]);
  auto from_sub =
      kernel.ApplyRows(pk, sub, lanes, begin, end, cache, &support);
  ASSERT_TRUE(from_sub.ok()) << what << ": " << from_sub.status().ToString();
  expect_rows(from_sub.value(), begin, "sub-tensor");

  ThreadPool pool(3);
  auto partition = PartitionOp(op, 3);
  ASSERT_TRUE(partition.ok());
  for (bool input_part : {false, true}) {
    auto parallel = ApplyEncryptedPartitioned(
        pk, kernel, in, partition.value(), input_part, &pool, cache, lanes);
    ASSERT_TRUE(parallel.ok()) << what << ": "
                               << parallel.status().ToString();
    ASSERT_EQ(parallel.value().size(), want.size());
    expect_rows(parallel.value(), 0,
                std::string("partitioned, input_part=") +
                    (input_part ? "1" : "0"));
  }
}

}  // namespace ppstream
