/**
 * @file
 * The density-matrix hot-path kernels, in their own translation unit
 * so the build can hand just these loops the vector ISA
 * (QZZ_VECTOR_KERNELS) while the retained scalar reference paths in
 * density_matrix.cc keep the baseline codegen they shipped with —
 * the bench_sim_speed scalar/optimized ratio then compares against
 * the true pre-optimization engine.
 *
 * Four primitives build the Strang step: a row pass (one job
 * left-applied, rows mixed whole and contiguous along columns,
 * optionally with a row phase folded in and a factor table applied),
 * an in-place conjugate transpose, a phase pass, and a transfer pass
 * (one lossy qubit's amplitude-damping feed).
 */

#include <array>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "sim/density_matrix.h"

namespace qzz::sim {

using la::cplx;

namespace {

// The kernels below avoid std::complex operator* on purpose: libstdc++
// lowers it through _Complex multiplication, whose NaN-recovery branch
// (__muldc3) blocks auto-vectorization.  cmul() is the finite-input
// fast path of that multiply — identical bits for the values a density
// matrix can hold — written so the compiler can keep everything in
// vector registers.

inline cplx
cmul(cplx a, cplx b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

/** Insert a zero bit at the position of one-bit @p mask: maps a
 *  compact index onto the sub-lattice with that bit clear. */
inline size_t
expandBit(size_t j, size_t mask)
{
    return ((j & ~(mask - 1)) << 1) | (j & (mask - 1));
}

/** Row blocks of at least this many elements go to the shared pool. */
constexpr size_t kParallelDim = 256; // d = 2^8  <=>  n >= 8 qubits
constexpr size_t kRowGrain = 8;      // row groups per pool block

/** Run @p body over row groups [0, @p groups), split across the pool
 *  for large matrices (callers write disjoint rows per group). */
template <typename Body>
void
forRowGroups(size_t d, size_t groups, const Body &body)
{
    if (d >= kParallelDim)
        common::parallelFor(0, groups, kRowGrain, body);
    else
        body(0, groups);
}

/**
 * Replace the K rows @p rows (interleaved re/im doubles) by c . rows,
 * c row-major K x K with split real (@p c_re) and imaginary (@p c_im)
 * parts, column by column; with Scale, each stored double is
 * multiplied by the matching entry of the factor rows @p f (laid out
 * like the rows).  The coefficients are copied to locals and the rows
 * restrict-qualified (they are distinct, and the factor rows are
 * never written), so the column loop vectorizes.
 */
template <int K, bool Scale>
void
mixRows(double *const *rows, const double *c_re, const double *c_im,
        size_t d, const double *const *f)
{
    double cr[K * K], ci[K * K];
    for (int i = 0; i < K * K; ++i) {
        cr[i] = c_re[i];
        ci[i] = c_im[i];
    }
    double *__restrict r0 = rows[0];
    double *__restrict r1 = rows[1];
    double *__restrict r2 = K == 4 ? rows[2] : nullptr;
    double *__restrict r3 = K == 4 ? rows[3] : nullptr;
    const double *__restrict f0 = Scale ? f[0] : nullptr;
    const double *__restrict f1 = Scale ? f[1] : nullptr;
    double *const x[4] = {r0, r1, r2, r3};
    const double *const fr[2] = {f0, f1};
    for (size_t col = 0; col < d; ++col) {
        const size_t k = 2 * col;
        double xr[K], xi[K];
        for (int j = 0; j < K; ++j) {
            xr[j] = x[j][k];
            xi[j] = x[j][k + 1];
        }
        for (int i = 0; i < K; ++i) {
            double yr = 0.0, yi = 0.0;
            for (int j = 0; j < K; ++j) {
                yr += cr[i * K + j] * xr[j] - ci[i * K + j] * xi[j];
                yi += cr[i * K + j] * xi[j] + ci[i * K + j] * xr[j];
            }
            if constexpr (Scale) {
                yr *= fr[i][k];
                yi *= fr[i][k + 1];
            }
            x[i][k] = yr;
            x[i][k + 1] = yi;
        }
    }
}

/** x[i] *= f[i] over one row's 2 @p d doubles. */
inline void
scaleRow(double *__restrict x, const double *__restrict f, size_t d)
{
    for (size_t i = 0; i < 2 * d; ++i)
        x[i] *= f[i];
}

/**
 * One job left-applied in place as a row pass: every group of rows
 * that differ only in the job's qubits is replaced by
 * c . rows, c[i][j] = pout[r_i] u[i][j] pin[r_j].  A null @p pin /
 * @p pout is the identity; a non-null factor table @p f
 * (DecoherenceChannel layout) scales each stored element.
 */
void
rowPass(cplx *m, size_t d, const StepJob &job, size_t s_hi, size_t s_lo,
        const cplx *pin, const cplx *pout, const double *f)
{
    const size_t k = s_lo ? 4 : 2;
    const size_t s_min = s_lo ? std::min(s_hi, s_lo) : s_hi;
    const size_t s_max = s_lo ? std::max(s_hi, s_lo) : 0;
    auto body = [&](size_t jlo, size_t jhi) {
        for (size_t j = jlo; j < jhi; ++j) {
            size_t base = expandBit(j, s_min);
            if (s_lo)
                base = expandBit(base, s_max);
            size_t r[4];
            double *x[4] = {};
            for (size_t i = 0; i < k; ++i) {
                r[i] = base;
                if (k == 2 ? i == 1 : (i & 2))
                    r[i] |= s_hi;
                if (k == 4 && (i & 1))
                    r[i] |= s_lo;
                x[i] = reinterpret_cast<double *>(m + r[i] * d);
            }
            double cr[16], ci[16];
            for (size_t i = 0; i < k; ++i)
                for (size_t jj = 0; jj < k; ++jj) {
                    cplx v = job.u[i * k + jj];
                    if (pin)
                        v = cmul(v, pin[r[jj]]);
                    if (pout)
                        v = cmul(pout[r[i]], v);
                    cr[i * k + jj] = v.real();
                    ci[i * k + jj] = v.imag();
                }
            if (k == 2 && f) {
                const double *fr[2] = {f + 2 * r[0] * d, f + 2 * r[1] * d};
                mixRows<2, true>(x, cr, ci, d, fr);
            } else if (k == 2) {
                mixRows<2, false>(x, cr, ci, d, nullptr);
            } else {
                // Four rows with the factor fused into the store run
                // out of vector registers; scaling the rows while they
                // are still in L1 is cheaper.
                mixRows<4, false>(x, cr, ci, d, nullptr);
                for (size_t i = 0; f && i < 4; ++i)
                    scaleRow(x[i], f + 2 * r[i] * d, d);
            }
        }
    };
    forRowGroups(d, d / k, body);
}

/** m <- m^dag in place, by swapping conjugated 8x8 tiles across the
 *  diagonal; tile row I owns every pair (I, J >= I). */
void
adjointInPlace(cplx *m, size_t d)
{
    const size_t b = std::min<size_t>(8, d);
    auto body = [&](size_t tlo, size_t thi) {
        for (size_t t = tlo; t < thi; ++t) {
            const size_t r0 = t * b;
            for (size_t r = r0; r < r0 + b; ++r) {
                m[r * d + r] = std::conj(m[r * d + r]);
                for (size_t c = r + 1; c < r0 + b; ++c) {
                    const cplx x = m[r * d + c];
                    m[r * d + c] = std::conj(m[c * d + r]);
                    m[c * d + r] = std::conj(x);
                }
            }
            for (size_t c0 = r0 + b; c0 < d; c0 += b)
                for (size_t r = r0; r < r0 + b; ++r)
                    for (size_t c = c0; c < c0 + b; ++c) {
                        const cplx x = m[r * d + c];
                        m[r * d + c] = std::conj(m[c * d + r]);
                        m[c * d + r] = std::conj(x);
                    }
        }
    };
    if (d >= kParallelDim)
        common::parallelFor(0, d / b, 1, body);
    else
        body(0, d / b);
}

/** m[r,c] *= p[r] conj(p[c]) (and f[r,c] when the factor table @p f
 *  is non-null). */
void
phasePass(cplx *m, size_t d, const cplx *p, const double *f)
{
    auto body = [&](size_t rlo, size_t rhi) {
        for (size_t r = rlo; r < rhi; ++r) {
            const cplx pr = p[r];
            cplx *row = m + r * d;
            if (f) {
                const double *frow = f + 2 * r * d;
                for (size_t c = 0; c < d; ++c)
                    row[c] = cmul(row[c], cmul(pr, std::conj(p[c]))) *
                             frow[2 * c];
            } else {
                for (size_t c = 0; c < d; ++c)
                    row[c] = cmul(row[c], cmul(pr, std::conj(p[c])));
            }
        }
    };
    forRowGroups(d, d, body);
}

} // namespace

void
DecoherenceChannel::assign(int n, const std::vector<double> &gamma,
                           const std::vector<double> &keep)
{
    require(n >= 1 && n <= 10, "DecoherenceChannel: qubit count out of "
                               "range");
    require(int(gamma.size()) == n && int(keep.size()) == n,
            "DecoherenceChannel: per-qubit rate vectors must have one "
            "entry per qubit");
    // Per qubit (most significant first): the factor of an element
    // whose (r_q, c_q) is (0,0), mixed or (1,1), as the damping and
    // then the dephasing channel apply it.
    std::array<std::array<double, 3>, 10> t{};
    bool any = false;
    transfers_.clear();
    for (int q = 0; q < n; ++q) {
        const double g = gamma[size_t(q)];
        const double kp = keep[size_t(q)];
        require(g >= 0.0 && g < 1.0 && kp >= 0.0 && kp <= 1.0,
                "DecoherenceChannel: need 0 <= gamma < 1 and "
                "0 <= keep <= 1");
        t[size_t(q)] = {1.0, std::sqrt(1.0 - g) * kp, 1.0 - g};
        any = any || g > 0.0 || kp < 1.0;
        if (g > 0.0)
            transfers_.push_back(
                {size_t(1) << (n - 1 - q), g / (1.0 - g)});
    }
    factors_.clear();
    if (!any)
        return;
    // F is the Kronecker product of the per-qubit tables, so each row
    // grows by column doubling in place (back to front), then spreads
    // to one entry per double.
    const size_t d = size_t(1) << n;
    factors_.resize(2 * d * d);
    for (size_t r = 0; r < d; ++r) {
        double *row = factors_.data() + 2 * r * d;
        row[0] = 1.0;
        for (int q = 0; q < n; ++q) {
            const bool rb = (r >> (n - 1 - q)) & 1;
            const double f0 = t[size_t(q)][rb ? 1 : 0];
            const double f1 = t[size_t(q)][rb ? 2 : 1];
            for (size_t c = size_t(1) << q; c-- > 0;) {
                row[2 * c + 1] = row[c] * f1;
                row[2 * c] = row[c] * f0;
            }
        }
        for (size_t c = d; c-- > 0;)
            row[2 * c] = row[2 * c + 1] = row[c];
    }
}

const double *
DecoherenceChannel::factorsFor(size_t d) const
{
    if (factors_.empty())
        return nullptr;
    require(factors_.size() == 2 * d * d,
            "DecoherenceChannel: built for another register size");
    return factors_.data();
}

void
DensityMatrix::applyStepUnitary(const StepJob *jobs, size_t count,
                                const la::CVector &p,
                                const DecoherenceChannel &channel)
{
    require(count >= 1, "applyStepUnitary: need at least one job");
    require(p.size() == dim(), "applyStepUnitary: phase table size");
    const size_t d = dim();
    cplx *m = rho_.data();
    const double *f = channel.factorsFor(d);
    // The jobs commute; the last pass carries the factor table, which
    // costs a two-row pass less than a four-row one, so a
    // single-qubit job (if any) goes last.
    size_t last_job = count - 1;
    for (size_t i = 0; i < count; ++i)
        if (jobs[i].q_lo < 0)
            last_job = i;
    auto leftApplyA = [&](const double *last_f) {
        for (size_t i = 0; i < count; ++i) {
            const size_t at = i == count - 1 ? last_job
                              : i == last_job ? count - 1
                                              : i;
            const StepJob &j = jobs[at];
            const size_t s_hi = size_t(1) << bitPos(j.q_hi);
            const size_t s_lo =
                j.q_lo < 0 ? 0 : size_t(1) << bitPos(j.q_lo);
            const bool last = i + 1 == count;
            rowPass(m, d, j, s_hi, s_lo, i == 0 ? p.data() : nullptr,
                    last ? p.data() : nullptr, last ? last_f : nullptr);
        }
    };
    leftApplyA(nullptr);
    adjointInPlace(m, d);
    leftApplyA(f);
}

void
DensityMatrix::applyPhaseVector(const la::CVector &p,
                                const DecoherenceChannel &channel)
{
    require(p.size() == dim(), "applyPhaseVector: table size");
    phasePass(rho_.data(), dim(), p.data(), channel.factorsFor(dim()));
}

void
DensityMatrix::applyTransfers(const DecoherenceChannel &channel)
{
    const size_t d = dim();
    cplx *m = rho_.data();
    if (!channel.factorsFor(d))
        return; // the identity channel has no transfers
    for (const DecoherenceChannel::Transfer &t : channel.transfers_) {
        const size_t s = t.mask;
        const double a = t.ratio;
        // Rows with the qubit's bit clear gain from the rows with it
        // set, on the columns with it clear; the source rows are
        // never written by this pass.
        auto body = [&](size_t jlo, size_t jhi) {
            for (size_t j = jlo; j < jhi; ++j) {
                cplx *dst = m + expandBit(j, s) * d;
                const cplx *src = dst + s * d + s;
                for (size_t base = 0; base < d; base += 2 * s)
                    for (size_t off = 0; off < s; ++off)
                        dst[base + off] += a * src[base + off];
            }
        };
        forRowGroups(d, d / 2, body);
    }
}

} // namespace qzz::sim
