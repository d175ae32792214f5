// Regression tests for the deterministic compute-kernel layer: every kernel
// must be bitwise-identical to the naive reference loop it replaced, at any
// shape (including degenerate ones) and any thread count.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/frames.hpp"
#include "core/pipeline.hpp"
#include "dsp/cmatrix.hpp"
#include "dsp/covariance.hpp"
#include "dsp/eig.hpp"
#include "dsp/fft.hpp"
#include "kern/eig4.hpp"
#include "kern/kernels.hpp"
#include "kern/workspace.hpp"
#include "nn/conv1d.hpp"
#include "par/parallel_for.hpp"
#include "util/rng.hpp"

namespace m2ai {
namespace {

std::vector<float> random_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// The naive forward loop the GEMV kernel replaced (Dense/LSTM gates).
std::vector<float> naive_gemv(const std::vector<float>& w,
                              const std::vector<float>& x,
                              const std::vector<float>& b, int rows, int cols) {
  std::vector<float> y(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    float acc = b.empty() ? 0.0f : b[static_cast<std::size_t>(r)];
    for (int k = 0; k < cols; ++k) {
      acc += w[static_cast<std::size_t>(r) * cols + k] * x[static_cast<std::size_t>(k)];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

TEST(KernGemv, BitwiseMatchesNaiveAtOddShapes) {
  util::Rng rng(7);
  const int shapes[][2] = {{1, 1}, {3, 5}, {7, 13}, {31, 17}, {128, 96}, {5, 0}};
  for (const auto& s : shapes) {
    const int rows = s[0], cols = s[1];
    const auto w = random_floats(static_cast<std::size_t>(rows) * cols, rng);
    const auto x = random_floats(static_cast<std::size_t>(cols), rng);
    const auto b = random_floats(static_cast<std::size_t>(rows), rng);
    std::vector<float> y(static_cast<std::size_t>(rows), -1.0f);
    kern::gemv(w.data(), x.data(), b.data(), y.data(), rows, cols);
    const auto ref = naive_gemv(w, x, b, rows, cols);
    ASSERT_EQ(0, std::memcmp(y.data(), ref.data(), y.size() * sizeof(float)))
        << rows << "x" << cols;
  }
}

TEST(KernGemv, NullBiasStartsFromZero) {
  util::Rng rng(8);
  const auto w = random_floats(6, rng);
  const auto x = random_floats(3, rng);
  std::vector<float> y(2);
  kern::gemv(w.data(), x.data(), nullptr, y.data(), 2, 3);
  const auto ref = naive_gemv(w, x, {}, 2, 3);
  EXPECT_EQ(0, std::memcmp(y.data(), ref.data(), y.size() * sizeof(float)));
}

TEST(KernGemvBackward, BitwiseMatchesNaiveWithAndWithoutSkip) {
  util::Rng rng(9);
  const int rows = 12, cols = 7;
  const auto w = random_floats(static_cast<std::size_t>(rows) * cols, rng);
  const auto x = random_floats(cols, rng);
  auto g = random_floats(rows, rng);
  g[2] = 0.0f;  // exercise the skip branch
  g[9] = 0.0f;

  for (const bool skip : {true, false}) {
    // Start all accumulators from nonzero state: the kernel accumulates.
    auto wg_k = random_floats(w.size(), rng);
    auto wg_n = wg_k;
    auto bg_k = random_floats(rows, rng);
    auto bg_n = bg_k;
    auto dx_k = random_floats(cols, rng);
    auto dx_n = dx_k;

    kern::gemv_backward_acc(w.data(), wg_k.data(), x.data(), g.data(), bg_k.data(),
                            dx_k.data(), rows, cols, skip);
    for (int r = 0; r < rows; ++r) {
      const float gr = g[static_cast<std::size_t>(r)];
      if (skip && gr == 0.0f) continue;
      bg_n[static_cast<std::size_t>(r)] += gr;
      for (int k = 0; k < cols; ++k) {
        wg_n[static_cast<std::size_t>(r) * cols + k] += gr * x[static_cast<std::size_t>(k)];
        dx_n[static_cast<std::size_t>(k)] += gr * w[static_cast<std::size_t>(r) * cols + k];
      }
    }
    EXPECT_EQ(0, std::memcmp(wg_k.data(), wg_n.data(), wg_k.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(bg_k.data(), bg_n.data(), bg_k.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(dx_k.data(), dx_n.data(), dx_k.size() * sizeof(float)));
  }
}

TEST(KernGemm, BitwiseMatchesNaiveTripleLoop) {
  util::Rng rng(10);
  const int shapes[][3] = {{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {2, 0, 3}, {13, 11, 17}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const auto a = random_floats(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_floats(static_cast<std::size_t>(k) * n, rng);
    std::vector<float> c(static_cast<std::size_t>(m) * n, -1.0f);
    kern::gemm(a.data(), b.data(), c.data(), m, k, n);
    std::vector<float> ref(c.size());
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int kk = 0; kk < k; ++kk) {
          acc += a[static_cast<std::size_t>(i) * k + kk] *
                 b[static_cast<std::size_t>(kk) * n + j];
        }
        ref[static_cast<std::size_t>(i) * n + j] = acc;
      }
    }
    ASSERT_EQ(0, std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)))
        << m << "x" << k << "x" << n;
  }
}

// gemm_bias keeps 64 outputs of a row in registers, then runs 8-column and
// single-column tails: every n below reaches a different mix of them.
TEST(KernGemmBias, BitwiseMatchesNaiveAtTileTails) {
  util::Rng rng(20);
  for (const int m : {1, 2, 8, 20}) {
    for (const int k : {0, 1, 64, 80}) {
      for (const int n : {1, 12, 63, 64, 65, 128, 130}) {
        auto a = random_floats(static_cast<std::size_t>(m) * k, rng);
        auto b = random_floats(static_cast<std::size_t>(k) * n, rng);
        auto bias = random_floats(static_cast<std::size_t>(n), rng);
        // Signed zeros: a sum that starts from the wrong zero or takes an
        // extra +0 term shows in the sign.
        for (std::size_t i = 0; i < a.size(); i += 3) a[i] = (i % 2 == 0) ? 0.0f : -0.0f;
        for (std::size_t i = 1; i < b.size(); i += 5) b[i] = -0.0f;
        for (std::size_t i = 0; i < bias.size(); i += 4) bias[i] = -0.0f;
        for (const bool with_bias : {true, false}) {
          const float* bp = with_bias ? bias.data() : nullptr;
          std::vector<float> c(static_cast<std::size_t>(m) * n, -1.0f);
          kern::gemm_bias(a.data(), b.data(), bp, c.data(), m, k, n);
          std::vector<float> ref(c.size());
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              float acc = with_bias ? bias[static_cast<std::size_t>(j)] : 0.0f;
              for (int kk = 0; kk < k; ++kk) {
                acc += a[static_cast<std::size_t>(i) * k + kk] *
                       b[static_cast<std::size_t>(kk) * n + j];
              }
              ref[static_cast<std::size_t>(i) * n + j] = acc;
            }
          }
          ASSERT_EQ(0, std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)))
              << m << "x" << k << "x" << n << " bias " << with_bias;
        }
      }
    }
  }
}

// gemv_frames' 8-row x 8-frame tile, its 4-frame and single-frame tails and
// its short row blocks give every frame gemv's bits.
TEST(KernGemvFrames, BitwiseMatchesGemvPerFrame) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  util::Rng rng(21);
  for (const int rows : {1, 4, 7, 8, 9, 12, 48}) {
    for (const int cols : {13, 120}) {
      auto w = random_floats(static_cast<std::size_t>(rows) * cols, rng);
      const auto bias = random_floats(static_cast<std::size_t>(rows), rng);
      // An infinite weight in the last row: a term taken for a zero input
      // would turn that row's output into NaN.
      w[static_cast<std::size_t>(rows - 1) * cols + 2] = kInf;
      for (int frames = 1; frames <= 25; ++frames) {
        const std::size_t nf = static_cast<std::size_t>(frames);
        auto x = random_floats(static_cast<std::size_t>(cols) * nf, rng);
        for (std::size_t i = 0; i < x.size(); i += 3) x[i] = (i % 2 == 0) ? 0.0f : -0.0f;
        for (const bool with_bias : {true, false}) {
          const float* bp = with_bias ? bias.data() : nullptr;
          std::vector<float> y(static_cast<std::size_t>(rows) * nf, -1.0f);
          kern::gemv_frames(w.data(), x.data(), bp, y.data(), rows, cols, frames);
          std::vector<float> xf(static_cast<std::size_t>(cols)), yf(static_cast<std::size_t>(rows));
          for (std::size_t f = 0; f < nf; ++f) {
            for (int k = 0; k < cols; ++k) xf[static_cast<std::size_t>(k)] = x[k * nf + f];
            kern::gemv(w.data(), xf.data(), bp, yf.data(), rows, cols);
            for (int r = 0; r < rows; ++r) {
              const float got = y[r * nf + f], want = yf[static_cast<std::size_t>(r)];
              ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
                  << rows << "x" << cols << " frames " << frames << " bias " << with_bias
                  << " at row " << r << " frame " << f;
            }
          }
        }
      }
    }
  }
}

TEST(KernTranspose, MatchesNaive) {
  util::Rng rng(19);
  // The two LSTM weights ([4H, I+H] at 48->32 and 32->32), the merge FC's
  // [48, 120], one 8x8 block, blocks whose last one overlaps (9x17) or
  // stacks (16x8), and odd and degenerate shapes.
  const int shapes[][2] = {{128, 80}, {128, 64}, {48, 120}, {8, 8}, {9, 17},
                           {16, 8},   {7, 13},   {1, 1},    {5, 0}};
  for (const auto& s : shapes) {
    const int rows = s[0], cols = s[1];
    const auto a = random_floats(static_cast<std::size_t>(rows) * cols, rng);
    std::vector<float> at(a.size(), -1.0f);
    kern::transpose(a.data(), rows, cols, at.data());
    for (int r = 0; r < rows; ++r) {
      for (int k = 0; k < cols; ++k) {
        ASSERT_EQ(at[static_cast<std::size_t>(k) * rows + r],
                  a[static_cast<std::size_t>(r) * cols + k])
            << rows << "x" << cols << " at " << r << "," << k;
      }
    }
  }
}

TEST(KernConv1dRow, BitwiseMatchesNaivePerElementLoop) {
  util::Rng rng(11);
  // (len, kernel, stride, padding) including kernel > len and zero padding.
  const int shapes[][4] = {{19, 5, 2, 3}, {180, 7, 2, 3}, {10, 3, 1, 1},
                           {4, 7, 1, 3},  {9, 3, 3, 0},   {1, 1, 1, 0}};
  for (const auto& s : shapes) {
    const int len = s[0], kernel = s[1], stride = s[2], padding = s[3];
    const int out_len = (len + 2 * padding - kernel) / stride + 1;
    ASSERT_GT(out_len, 0);
    const auto x = random_floats(static_cast<std::size_t>(len), rng);
    const auto w = random_floats(static_cast<std::size_t>(kernel), rng);
    std::vector<float> partial(static_cast<std::size_t>(out_len), 0.0f);
    kern::conv1d_row_acc(x.data(), len, w.data(), kernel, stride, padding,
                         partial.data(), out_len);
    for (int ol = 0; ol < out_len; ++ol) {
      float acc = 0.0f;
      for (int k = 0; k < kernel; ++k) {
        const int pos = ol * stride - padding + k;
        if (pos < 0 || pos >= len) continue;
        acc += w[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(pos)];
      }
      ASSERT_EQ(partial[static_cast<std::size_t>(ol)], acc)
          << "ol=" << ol << " len=" << len << " k=" << kernel;
    }
  }
}

TEST(KernNoiseProjection, BitwiseMatchesColumnInnerReference) {
  util::Rng rng(12);
  const int n = 4, num_noise = 3, num_bins = 37;
  // Noise vectors as columns of a CMatrix, the way the old MUSIC loop held them.
  dsp::CMatrix un_mat(static_cast<std::size_t>(n), static_cast<std::size_t>(num_noise));
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(num_noise); ++c) {
      un_mat(r, c) = dsp::cdouble{rng.normal(), rng.normal()};
    }
  }
  std::vector<dsp::cdouble> steer(static_cast<std::size_t>(num_bins) * n);
  for (auto& v : steer) v = dsp::cdouble{rng.normal(), rng.normal()};

  std::vector<dsp::cdouble> un_flat(static_cast<std::size_t>(num_noise) * n);
  for (int k = 0; k < num_noise; ++k) {
    for (int i = 0; i < n; ++i) {
      un_flat[static_cast<std::size_t>(k) * n + i] =
          un_mat(static_cast<std::size_t>(i), static_cast<std::size_t>(k));
    }
  }
  std::vector<double> denom(static_cast<std::size_t>(num_bins), -1.0);
  kern::noise_projection(un_flat.data(), num_noise, steer.data(), num_bins, n,
                         denom.data());

  for (int bin = 0; bin < num_bins; ++bin) {
    std::vector<dsp::cdouble> a(steer.begin() + static_cast<std::ptrdiff_t>(bin) * n,
                                steer.begin() + static_cast<std::ptrdiff_t>(bin + 1) * n);
    double d = 0.0;
    for (int k = 0; k < num_noise; ++k) {
      d += std::norm(dsp::inner(un_mat.column(static_cast<std::size_t>(k)), a));
    }
    ASSERT_EQ(denom[static_cast<std::size_t>(bin)], d) << "bin " << bin;
  }
}

// Non-finite steering values: where std::complex's product has two NaN
// parts it recovers infinities through __muldc3, which the vector tile does
// not, so those bins must come out of the scalar loop with its bits.
TEST(KernNoiseProjection, NonFiniteBinsMatchScalarComplexLoop) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(22);
  const int n = 4, num_noise = 2, num_bins = 29;
  std::vector<dsp::cdouble> un(static_cast<std::size_t>(num_noise) * n);
  for (auto& v : un) v = dsp::cdouble{rng.normal(), rng.normal()};
  std::vector<dsp::cdouble> steer(static_cast<std::size_t>(num_bins) * n);
  for (auto& v : steer) v = dsp::cdouble{rng.normal(), rng.normal()};
  steer[3] = {kInf, 0.0};
  steer[13] = {kInf, kInf};
  steer[42] = {kNan, 1.0};
  steer[77] = {kInf, kNan};  // its products' parts are both NaN: __muldc3
  std::vector<double> denom(static_cast<std::size_t>(num_bins), -1.0);
  kern::noise_projection(un.data(), num_noise, steer.data(), num_bins, n, denom.data());
  for (int bin = 0; bin < num_bins; ++bin) {
    double d = 0.0;
    for (int k = 0; k < num_noise; ++k) {
      dsp::cdouble s{0.0, 0.0};
      for (int i = 0; i < n; ++i) {
        s += std::conj(un[static_cast<std::size_t>(k) * n + i]) *
             steer[static_cast<std::size_t>(bin) * n + i];
      }
      d += std::norm(s);
    }
    const double got = denom[static_cast<std::size_t>(bin)];
    ASSERT_EQ(0, std::memcmp(&got, &d, sizeof d)) << "bin " << bin << ": " << got << " vs " << d;
  }
}

TEST(KernEig4, BitwiseMatchesGenericJacobi) {
  util::Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    // Hermitian 4x4 from a real sample covariance of noisy snapshots.
    std::vector<std::vector<dsp::cdouble>> snaps(16);
    for (auto& snap : snaps) {
      snap.resize(4);
      for (auto& v : snap) v = dsp::cdouble{rng.normal(), rng.normal()};
    }
    const dsp::CMatrix r = dsp::sample_covariance(snaps);
    const dsp::EigResult fast = dsp::eig_hermitian(r);      // dispatches to eig4
    const dsp::EigResult ref = dsp::eig_hermitian_generic(r);
    ASSERT_EQ(fast.values.size(), ref.values.size());
    for (std::size_t i = 0; i < ref.values.size(); ++i) {
      ASSERT_EQ(fast.values[i], ref.values[i]) << "eigenvalue " << i;
    }
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        ASSERT_EQ(fast.vectors(i, j), ref.vectors(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(KernFftPlan, BitwiseMatchesFftAtPow2AndBluesteinSizes) {
  util::Rng rng(14);
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{1024}, std::size_t{3}, std::size_t{25},
                              std::size_t{180}}) {
    std::vector<dsp::cdouble> x(n);
    for (auto& v : x) v = dsp::cdouble{rng.normal(), rng.normal()};
    const auto plan = dsp::shared_fft_plan(n);
    ASSERT_EQ(plan->size(), n);
    std::vector<dsp::cdouble> out(n), scratch;
    for (const bool inverse : {false, true}) {
      const auto ref = dsp::fft(x, inverse);
      plan->transform(x.data(), out.data(), inverse, scratch);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], ref[i]) << "n=" << n << " inverse=" << inverse << " i=" << i;
      }
      // In-place (aliased) transform must give the same bits.
      std::vector<dsp::cdouble> inplace = x;
      plan->transform(inplace.data(), inplace.data(), inverse, scratch);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(inplace[i], ref[i]);
    }
    // The cache hands out one plan per size.
    EXPECT_EQ(plan.get(), dsp::shared_fft_plan(n).get());
  }
}

TEST(KernWorkspace, PointersStableAcrossGrowthAndReusedAfterReset) {
  kern::Workspace ws;
  float* a = ws.alloc(16);
  for (int i = 0; i < 16; ++i) a[i] = static_cast<float>(i);
  // Force a new block; the first allocation must not move.
  float* big = ws.alloc(1 << 20);
  big[0] = 1.0f;
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a[i], static_cast<float>(i));

  const std::size_t reserved = ws.floats_reserved();
  ws.reset();
  EXPECT_EQ(ws.floats_reserved(), reserved);  // reset keeps the blocks
  // Steady state: the same request sequence reuses the same memory.
  EXPECT_EQ(ws.alloc(16), a);
  EXPECT_EQ(ws.alloc(1 << 20), big);
  EXPECT_EQ(ws.floats_reserved(), reserved);
}

TEST(KernWorkspace, EveryAllocationIs64ByteAligned) {
  // The fast kernel backend uses cache-line-aligned vector loads; the
  // workspace guarantees 64-byte alignment for every returned pointer, not
  // just the first per block, at any awkward request size.
  kern::Workspace ws;
  for (const std::size_t n : {1ul, 3ul, 16ul, 17ul, 63ul, 4096ul, 4097ul}) {
    const float* p = ws.alloc(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
  ws.reset();
  // Reuse after reset keeps the guarantee (same bump sequence, same blocks).
  for (const std::size_t n : {5ul, 100ul, 7ul}) {
    const float* p = ws.alloc_zero(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(KernWorkspace, AllocZeroZeroesReusedMemory) {
  kern::Workspace ws;
  float* p = ws.alloc(64);
  for (int i = 0; i < 64; ++i) p[i] = 3.0f;
  ws.reset();
  const float* z = ws.alloc_zero(64);
  EXPECT_EQ(z, p);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(z[i], 0.0f);
  // Zero-length requests still return distinct usable pointers.
  EXPECT_NE(ws.alloc(0), nullptr);
}

// Satellite: Conv1d::backward must validate grad_output against the cached
// forward shape instead of reading out of bounds / silently misindexing.
TEST(Conv1dBackward, RejectsGradShapeMismatch) {
  util::Rng rng(15);
  nn::Conv1d conv(2, 3, 3, 1, 1, rng);
  nn::Tensor x({2, 10});
  x.randomize_normal(rng, 1.0f);
  conv.forward(x, true);
  const int out_len = conv.output_length(10);

  nn::Tensor wrong_rank({3 * out_len});
  EXPECT_THROW(conv.backward(wrong_rank), std::invalid_argument);
  conv.forward(x, true);
  nn::Tensor wrong_channels({4, out_len});
  EXPECT_THROW(conv.backward(wrong_channels), std::invalid_argument);
  conv.forward(x, true);
  nn::Tensor wrong_len({3, out_len + 1});
  EXPECT_THROW(conv.backward(wrong_len), std::invalid_argument);

  conv.forward(x, true);
  nn::Tensor ok({3, out_len});
  ok.randomize_normal(rng, 1.0f);
  EXPECT_NO_THROW(conv.backward(ok));
}

// Spectrum frames must be bitwise-identical whether the windows are built on
// one thread or fanned out — the kernels changed the code under the
// parallel_map, not its determinism.
TEST(KernThreading, FrameSpectraBitwiseIdenticalAcrossThreadCounts) {
  core::PipelineConfig config;
  config.windows_per_sample = 4;
  core::FrameBuilder builder(config, nullptr, 3);
  std::vector<sim::TagReport> reports;
  util::Rng rng(16);
  for (int w = 0; w < 4; ++w) {
    for (int tag = 1; tag <= 3; ++tag) {
      for (int ant = 0; ant < 4; ++ant) {
        for (int k = 0; k < 6; ++k) {
          sim::TagReport r;
          r.time_sec = w * config.window_sec + 0.01 + 0.03 * k;
          r.tag_id = static_cast<std::uint32_t>(tag);
          r.antenna = ant;
          r.channel = 9;
          r.phase_rad = rng.uniform(0.0, 2.0 * M_PI);
          r.rssi_dbm = -50.0 - rng.uniform(0.0, 10.0);
          reports.push_back(r);
        }
      }
    }
  }

  par::set_num_threads(1);
  const auto frames_t1 = builder.build(reports, 0.0);
  par::set_num_threads(4);
  const auto frames_t4 = builder.build(reports, 0.0);
  par::set_num_threads(0);  // restore default

  ASSERT_EQ(frames_t1.size(), frames_t4.size());
  for (std::size_t f = 0; f < frames_t1.size(); ++f) {
    const auto& a = frames_t1[f];
    const auto& b = frames_t4[f];
    ASSERT_EQ(a.pseudo.size(), b.pseudo.size());
    for (std::size_t i = 0; i < a.pseudo.size(); ++i) {
      ASSERT_EQ(a.pseudo[i], b.pseudo[i]) << "frame " << f << " pseudo[" << i << "]";
    }
    for (std::size_t i = 0; i < a.aux.size(); ++i) {
      ASSERT_EQ(a.aux[i], b.aux[i]) << "frame " << f << " aux[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace m2ai
