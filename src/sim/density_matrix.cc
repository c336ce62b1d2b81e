// The Strang-step kernels (applyStepUnitary/applyTransfers/
// applyPhaseVector) live in density_matrix_kernels.cc, the only
// translation unit the build compiles with the vector ISA; this file
// keeps the constructors, the retained scalar reference paths, and
// the observables at baseline codegen.

#include "sim/density_matrix.h"

#include <cmath>

#include "common/error.h"

namespace qzz::sim {

using la::CMatrix;
using la::cplx;

DensityMatrix::DensityMatrix(int n) : n_(n)
{
    require(n >= 1 && n <= 10, "DensityMatrix: qubit count out of range");
    rho_ = CMatrix(dim(), dim());
    rho_(0, 0) = 1.0;
}

DensityMatrix
DensityMatrix::fromPure(const StateVector &psi)
{
    DensityMatrix dm(psi.numQubits());
    const auto &a = psi.amplitudes();
    for (size_t r = 0; r < a.size(); ++r)
        for (size_t c = 0; c < a.size(); ++c)
            dm.rho_(r, c) = a[r] * std::conj(a[c]);
    return dm;
}

void
DensityMatrix::apply1QScalar(const CMatrix &u, int q)
{
    require(u.rows() == 2 && u.cols() == 2, "apply1Q: need 2x2");
    const size_t stride = size_t(1) << bitPos(q);
    const size_t d = dim();
    // Left multiply: rows mix within each column.
    for (size_t c = 0; c < d; ++c) {
        for (size_t base = 0; base < d; base += 2 * stride) {
            for (size_t off = 0; off < stride; ++off) {
                const size_t r0 = base + off, r1 = r0 + stride;
                const cplx a0 = rho_(r0, c), a1 = rho_(r1, c);
                rho_(r0, c) = u(0, 0) * a0 + u(0, 1) * a1;
                rho_(r1, c) = u(1, 0) * a0 + u(1, 1) * a1;
            }
        }
    }
    // Right multiply by U^dag: columns mix within each row.
    for (size_t r = 0; r < d; ++r) {
        for (size_t base = 0; base < d; base += 2 * stride) {
            for (size_t off = 0; off < stride; ++off) {
                const size_t c0 = base + off, c1 = c0 + stride;
                const cplx a0 = rho_(r, c0), a1 = rho_(r, c1);
                rho_(r, c0) =
                    a0 * std::conj(u(0, 0)) + a1 * std::conj(u(0, 1));
                rho_(r, c1) =
                    a0 * std::conj(u(1, 0)) + a1 * std::conj(u(1, 1));
            }
        }
    }
}

void
DensityMatrix::apply2QScalar(const CMatrix &u, int q_hi, int q_lo)
{
    require(u.rows() == 4 && u.cols() == 4, "apply2Q: need 4x4");
    const size_t s_hi = size_t(1) << bitPos(q_hi);
    const size_t s_lo = size_t(1) << bitPos(q_lo);
    const size_t d = dim();
    auto idx = [&](size_t k, int comp) {
        size_t out = k;
        if (comp & 2)
            out |= s_hi;
        if (comp & 1)
            out |= s_lo;
        return out;
    };
    // Left multiply.
    for (size_t c = 0; c < d; ++c) {
        for (size_t k = 0; k < d; ++k) {
            if ((k & s_hi) || (k & s_lo))
                continue;
            cplx v[4];
            for (int i = 0; i < 4; ++i)
                v[i] = rho_(idx(k, i), c);
            for (int i = 0; i < 4; ++i) {
                cplx acc = 0.0;
                for (int j = 0; j < 4; ++j)
                    acc += u(size_t(i), size_t(j)) * v[j];
                rho_(idx(k, i), c) = acc;
            }
        }
    }
    // Right multiply by U^dag.
    for (size_t r = 0; r < d; ++r) {
        for (size_t k = 0; k < d; ++k) {
            if ((k & s_hi) || (k & s_lo))
                continue;
            cplx v[4];
            for (int i = 0; i < 4; ++i)
                v[i] = rho_(r, idx(k, i));
            for (int i = 0; i < 4; ++i) {
                cplx acc = 0.0;
                for (int j = 0; j < 4; ++j)
                    acc += v[j] * std::conj(u(size_t(i), size_t(j)));
                rho_(r, idx(k, i)) = acc;
            }
        }
    }
}

void
DensityMatrix::applyRz(int q, double theta)
{
    const size_t mask = size_t(1) << bitPos(q);
    const size_t d = dim();
    const cplx phase = std::exp(cplx{0.0, -theta});
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < d; ++c) {
            const bool rb = r & mask, cb = c & mask;
            if (rb == cb)
                continue;
            rho_(r, c) *= rb ? std::conj(phase) : phase;
        }
}

void
DensityMatrix::applyDiagonalPhase(const std::vector<double> &energies,
                                  double dt)
{
    require(energies.size() == dim(), "applyDiagonalPhase: table size");
    const size_t d = dim();
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < d; ++c) {
            const double phi = (energies[r] - energies[c]) * dt;
            rho_(r, c) *= cplx{std::cos(phi), -std::sin(phi)};
        }
}

void
DensityMatrix::applyAmplitudeDamping(int q, double gamma)
{
    require(gamma >= 0.0 && gamma <= 1.0, "applyAmplitudeDamping: gamma");
    const size_t mask = size_t(1) << bitPos(q);
    const size_t d = dim();
    const double keep = std::sqrt(1.0 - gamma);
    for (size_t r = 0; r < d; ++r) {
        for (size_t c = 0; c < d; ++c) {
            const bool rb = r & mask, cb = c & mask;
            if (rb && cb)
                continue; // handled via the 00 partner below
            if (!rb && !cb) {
                rho_(r, c) += gamma * rho_(r | mask, c | mask);
            } else {
                rho_(r, c) *= keep; // one excited index
            }
        }
    }
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < d; ++c)
            if ((r & mask) && (c & mask))
                rho_(r, c) *= 1.0 - gamma;
}

void
DensityMatrix::applyDephasing(int q, double keep)
{
    require(keep >= 0.0 && keep <= 1.0, "applyDephasing: keep factor");
    const size_t mask = size_t(1) << bitPos(q);
    const size_t d = dim();
    for (size_t r = 0; r < d; ++r)
        for (size_t c = 0; c < d; ++c) {
            const bool rb = r & mask, cb = c & mask;
            if (rb != cb)
                rho_(r, c) *= keep;
        }
}

void
DensityMatrix::applyDecoherenceScalar(const std::vector<double> &gamma,
                                      const std::vector<double> &keep)
{
    require(int(gamma.size()) == n_ && int(keep.size()) == n_,
            "applyDecoherenceScalar: per-qubit rate vectors must have one "
            "entry per qubit");
    for (int q = 0; q < n_; ++q) {
        if (gamma[size_t(q)] > 0.0)
            applyAmplitudeDamping(q, gamma[size_t(q)]);
        if (keep[size_t(q)] < 1.0)
            applyDephasing(q, keep[size_t(q)]);
    }
}

double
DensityMatrix::expectationPure(const StateVector &psi) const
{
    require(psi.numQubits() == n_, "expectationPure: size mismatch");
    const auto &a = psi.amplitudes();
    cplx acc = 0.0;
    for (size_t r = 0; r < a.size(); ++r) {
        cplx row = 0.0;
        for (size_t c = 0; c < a.size(); ++c)
            row += rho_(r, c) * a[c];
        acc += std::conj(a[r]) * row;
    }
    return acc.real();
}

double
DensityMatrix::trace() const
{
    return rho_.trace().real();
}

double
DensityMatrix::probabilityOne(int q) const
{
    const size_t mask = size_t(1) << bitPos(q);
    double p = 0.0;
    for (size_t k = 0; k < dim(); ++k)
        if (k & mask)
            p += rho_(k, k).real();
    return p;
}

} // namespace qzz::sim
