#include "kern/micro.hpp"

#include <chrono>
#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

namespace m2ai::kern {

KernMicro measure_micro(const Backend& be) {
  using clock = std::chrono::steady_clock;
  const auto time_ns = [](int iters, const auto& op) {
    op();  // warm up / fault in
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) op();
    return std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
           iters;
  };
  const auto fill = [](std::vector<float>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 0.01f * static_cast<float>(i % 23) - 0.1f;
    }
  };

  KernMicro m;
  {
    // LSTM gate GEMV: [4H, I+H] with H = 32, I = 32.
    const int rows = 128, cols = 64;
    std::vector<float> w(static_cast<std::size_t>(rows) * cols), x(cols),
        b(rows), y(rows);
    fill(w), fill(x), fill(b);
    m.gemv_ns = time_ns(
        2000, [&] { be.gemv(w.data(), x.data(), b.data(), y.data(), rows, cols); });
  }
  {
    // Micro-batch gate GEMM: 8 streams x [I+H] x [4H].
    const int mm = 8, kk = 64, nn = 128;
    std::vector<float> a(static_cast<std::size_t>(mm) * kk),
        bmat(static_cast<std::size_t>(kk) * nn), bias(nn),
        c(static_cast<std::size_t>(mm) * nn);
    fill(a), fill(bmat), fill(bias);
    m.gemm_bias_ns = time_ns(500, [&] {
      be.gemm_bias(a.data(), bmat.data(), bias.data(), c.data(), mm, kk, nn);
    });
  }
  {
    // CONV-E1 row: 180 angle bins, kernel 7, stride 2, padding 3.
    const int len = 180, kernel = 7, stride = 2, padding = 3, out_len = 90;
    std::vector<float> x(len), w(kernel), partial(out_len, 0.0f);
    fill(x), fill(w);
    m.conv1d_row_ns = time_ns(2000, [&] {
      be.conv1d_row_acc(x.data(), len, w.data(), kernel, stride, padding,
                        partial.data(), out_len);
    });
  }
  {
    // MUSIC projection: 180 bins x 4 antennas, 2 noise vectors (paper's M=2).
    const int bins = 180, n = 4, num_noise = 2;
    std::vector<std::complex<double>> un(static_cast<std::size_t>(num_noise) * n),
        steer(static_cast<std::size_t>(bins) * n);
    for (std::size_t i = 0; i < un.size(); ++i) {
      un[i] = {0.3 + 0.01 * static_cast<double>(i % 7),
               -0.2 + 0.02 * static_cast<double>(i % 5)};
    }
    for (std::size_t i = 0; i < steer.size(); ++i) {
      steer[i] = {std::cos(0.1 * static_cast<double>(i)),
                  std::sin(0.1 * static_cast<double>(i))};
    }
    std::vector<double> denom(bins);
    m.noise_projection_ns = time_ns(1000, [&] {
      be.noise_projection(un.data(), num_noise, steer.data(), bins, n,
                          denom.data());
    });
  }
  return m;
}

std::vector<std::pair<std::string, double>> micro_gauge_items(
    const char* backend_name, const KernMicro& micro) {
  const std::string prefix = std::string("kern.") + backend_name + ".";
  return {
      {prefix + "gemv.ns_per_op", micro.gemv_ns},
      {prefix + "gemm_bias.ns_per_op", micro.gemm_bias_ns},
      {prefix + "conv1d_row.ns_per_op", micro.conv1d_row_ns},
      {prefix + "noise_projection.ns_per_op", micro.noise_projection_ns},
  };
}

}  // namespace m2ai::kern
