// Independent float64 reference Kalman filter of the benchmark.
//
// A textbook filter with its own dense algebra; it shares no code with the
// program's kalman/ or linalg/ layers.  The gain is computed exactly in the
// information form
//     P_n = (P'_n^-1 + H^t R^-1 H)^-1,   K_n = P_n H^t R^-1,
// which equals P' H^t (H P' H^t + R)^-1 but needs only one z x z inverse
// (R^-1, once per config) and two x x x inverses per iteration.  Because K
// does not depend on the measurements, one gain trajectory serves every
// session of a config, and each session then costs O(x*z) per bin.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench::ref {

// Row-major dense matrix, just enough for the reference filter.
struct Mat {
  std::size_t r = 0, c = 0;
  std::vector<double> a;
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols) : r(rows), c(cols), a(rows * cols) {}
  double& operator()(std::size_t i, std::size_t j) { return a[i * c + j]; }
  double operator()(std::size_t i, std::size_t j) const { return a[i * c + j]; }
};

inline Mat mul(const Mat& x, const Mat& y) {
  if (x.c != y.r) throw std::invalid_argument("ref::mul: shape");
  Mat out(x.r, y.c);
  for (std::size_t i = 0; i < x.r; ++i)
    for (std::size_t k = 0; k < x.c; ++k) {
      const double xik = x(i, k);
      for (std::size_t j = 0; j < y.c; ++j) out(i, j) += xik * y(k, j);
    }
  return out;
}

inline Mat transpose(const Mat& x) {
  Mat out(x.c, x.r);
  for (std::size_t i = 0; i < x.r; ++i)
    for (std::size_t j = 0; j < x.c; ++j) out(j, i) = x(i, j);
  return out;
}

inline Mat add(Mat x, const Mat& y) {
  for (std::size_t i = 0; i < x.a.size(); ++i) x.a[i] += y.a[i];
  return x;
}

// Exact inverse by Gauss-Jordan elimination with partial pivoting.
inline Mat inverse(Mat m) {
  if (m.r != m.c) throw std::invalid_argument("ref::inverse: not square");
  const std::size_t n = m.r;
  Mat inv(n, n);
  for (std::size_t i = 0; i < n; ++i) inv(i, i) = 1.0;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    for (std::size_t i = col + 1; i < n; ++i)
      if (std::fabs(m(i, col)) > std::fabs(m(piv, col))) piv = i;
    if (m(piv, col) == 0.0) throw std::runtime_error("ref::inverse: singular");
    if (piv != col)
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m(piv, j), m(col, j));
        std::swap(inv(piv, j), inv(col, j));
      }
    const double d = 1.0 / m(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      m(col, j) *= d;
      inv(col, j) *= d;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i == col) continue;
      const double f = m(i, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        m(i, j) -= f * m(col, j);
        inv(i, j) -= f * inv(col, j);
      }
    }
  }
  return inv;
}

// The model the reference runs: x_n = F x_{n-1} + w (cov Q), z_n = H x_n + v
// (cov R), starting from x0 with covariance P0.
struct Model {
  Mat f, q, h, r, p0;
  std::vector<double> x0;
};

// One config's gain trajectory K_0 .. K_{n-1} (each x by z, row-major).
class GainTrajectory {
 public:
  GainTrajectory(const Model& m, std::size_t iterations)
      : x_(m.f.r), z_(m.h.r) {
    const Mat ht = transpose(m.h);
    const Mat ht_rinv = mul(ht, inverse(m.r));
    const Mat info = mul(ht_rinv, m.h);
    const Mat ft = transpose(m.f);
    Mat p = m.p0;
    gains_.reserve(iterations);
    for (std::size_t n = 0; n < iterations; ++n) {
      const Mat p_pred = add(mul(mul(m.f, p), ft), m.q);
      p = inverse(add(inverse(p_pred), info));
      gains_.push_back(mul(p, ht_rinv));
    }
  }
  std::size_t size() const { return gains_.size(); }
  const Mat& gain(std::size_t n) const { return gains_.at(n); }
  std::size_t x_dim() const { return x_; }
  std::size_t z_dim() const { return z_; }

 private:
  std::size_t x_, z_;
  std::vector<Mat> gains_;
};

// One session's state under a shared gain trajectory.
class Session {
 public:
  Session(const Model& m, const GainTrajectory& g)
      : m_(m), g_(g), x_(m.x0), x_pred_(m.x0.size()), nu_(g.z_dim()) {}

  // Decode bin n (bins must arrive in order) and return the new state.
  template <typename Z>
  const std::vector<double>& step(const Z* z) {
    const std::size_t xd = g_.x_dim(), zd = g_.z_dim();
    for (std::size_t i = 0; i < xd; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < xd; ++j) s += m_.f(i, j) * x_[j];
      x_pred_[i] = s;
    }
    for (std::size_t i = 0; i < zd; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < xd; ++j) s += m_.h(i, j) * x_pred_[j];
      nu_[i] = double(z[i]) - s;
    }
    const Mat& k = g_.gain(n_++);
    for (std::size_t i = 0; i < xd; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < zd; ++j) s += k(i, j) * nu_[j];
      x_[i] = x_pred_[i] + s;
    }
    return x_;
  }

 private:
  const Model& m_;
  const GainTrajectory& g_;
  std::vector<double> x_, x_pred_, nu_;
  std::size_t n_ = 0;
};

}  // namespace perfbench::ref
