/* k-means' two per-iteration loops, compiled: the kernels of
 * repro.ml.kmeans.KMeans.fit.  Each returns the bits of its numpy
 * kernel in repro/ml/kmeans.py (_assign's numpy branch, _numpy_closer,
 * _numpy_seed_step).
 *
 * repro_kmeans_nearest: Lloyd's assignment.  numpy keeps the dense
 * product work = (2 rows) @ centers^T and the squared norms; per row,
 * each squared distance s = max((|a|^2 + |b|^2) - work, 0) is
 * evaluated in numpy's order and the least one kept.  Its root r is
 * the row's distance, and its label the first centre whose s has
 * sqrt(s) == r: sqrt is monotone and correctly rounded, so that is
 * argmin over the roots, ties to the lower index, without n * k roots.
 * A NaN wins argmin at its first index, as in numpy.
 *
 * repro_kmeanspp_step: one k-means++ draw as Generator.choice(n, p=p)
 * makes it (p = closest / total, cdf = cumsum(p), cdf /= cdf[-1],
 * searchsorted(u, side="right") with numpy's NaN-aware compare),
 * then closest = minimum(closest, |data - data[index]|^2), each row's
 * sum in np.sum(axis=1)'s pairwise order.
 *
 * Built with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math; IEEE sqrt and division are correctly rounded.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

/* numpy's pairwise_sum_DOUBLE over n contiguous values. */
static double pairwise_sum(const double *a, size_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (size_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        size_t i;
        for (size_t j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (size_t j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    size_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Row i's squared distances into scratch; their least value, or NaN
 * when one of them is NaN. */
static double squared_row(const double *restrict w, double a,
                          const double *restrict center_sq, size_t k,
                          double *restrict scratch)
{
    size_t j = 0;
    double least = INFINITY;
    int nan_seen = 0;
#if defined(__SSE2__)
    /* max(0, s) keeps a NaN s as s < 0.0 ? 0.0 : s does, and min(s, m)
     * is s < m ? s : m; two accumulators of two lanes each. */
    const __m128d zero = _mm_setzero_pd(), row = _mm_set1_pd(a);
    __m128d m0 = _mm_set1_pd(INFINITY), m1 = m0;
    __m128d nan0 = zero, nan1 = zero;
    for (; j + 4 <= k; j += 4) {
        __m128d s0 = _mm_sub_pd(_mm_add_pd(row, _mm_loadu_pd(center_sq + j)),
                                _mm_loadu_pd(w + j));
        __m128d s1 = _mm_sub_pd(
            _mm_add_pd(row, _mm_loadu_pd(center_sq + j + 2)),
            _mm_loadu_pd(w + j + 2));
        s0 = _mm_max_pd(zero, s0);
        s1 = _mm_max_pd(zero, s1);
        _mm_storeu_pd(scratch + j, s0);
        _mm_storeu_pd(scratch + j + 2, s1);
        nan0 = _mm_or_pd(nan0, _mm_cmpunord_pd(s0, s0));
        nan1 = _mm_or_pd(nan1, _mm_cmpunord_pd(s1, s1));
        m0 = _mm_min_pd(s0, m0);
        m1 = _mm_min_pd(s1, m1);
    }
    double lanes[2];
    m0 = _mm_min_pd(m0, m1);
    _mm_storeu_pd(lanes, m0);
    least = lanes[1] < lanes[0] ? lanes[1] : lanes[0];
    nan_seen = _mm_movemask_pd(_mm_or_pd(nan0, nan1)) != 0;
#endif
    for (; j < k; j++) {
        double s = (a + center_sq[j]) - w[j];
        s = s < 0.0 ? 0.0 : s;                /* np.maximum(s, 0.0) */
        scratch[j] = s;
        nan_seen |= s != s;
        least = s < least ? s : least;
    }
    return nan_seen ? NAN : least;
}

void repro_kmeans_nearest(const double *restrict work,
                          const double *restrict row_sq,
                          const double *restrict center_sq,
                          size_t n, size_t k, double *restrict scratch,
                          int64_t *restrict labels, double *restrict roots)
{
    for (size_t i = 0; i < n; i++) {
        const double least = squared_row(work + i * k, row_sq[i], center_sq,
                                         k, scratch);
        size_t label = 0;
        if (least != least) {
            while (scratch[label] == scratch[label])
                label++;
            roots[i] = sqrt(scratch[label]);
        } else {
            const double root = sqrt(least);
            /* Every s with sqrt(s) == root lies within 2^-50 of least. */
            const double bound = least + least * 0x1p-48;
            while (!(scratch[label] <= bound
                     && sqrt(scratch[label]) == root))
                label++;
            roots[i] = root;
        }
        labels[i] = (int64_t)label;
    }
}

/* closest[j] = minimum(closest[j], |data[j] - data[index]|^2), numpy's
 * minimum (NaN kept) over np.sum(axis=1)'s row sums. */
void repro_kmeans_closer(const double *restrict data, size_t n, size_t d,
                         size_t index, double *restrict closest,
                         double *restrict row)
{
    const double *center = data + index * d;
    for (size_t j = 0; j < n; j++) {
        const double *x = data + j * d;
        double s;
        if (d < 8) {
            s = 0.0;
            for (size_t c = 0; c < d; c++) {
                const double t = x[c] - center[c];
                s += t * t;
            }
        } else {
            for (size_t c = 0; c < d; c++) {
                const double t = x[c] - center[c];
                row[c] = t * t;
            }
            s = pairwise_sum(row, d);
        }
        s = 0.0 + s;                          /* the reduction's identity */
        const double c = closest[j];
        closest[j] = (c <= s || c != c) ? c : s;
    }
}

int64_t repro_kmeanspp_step(const double *restrict data, size_t n, size_t d,
                            double *restrict closest, double total,
                            double u, double *restrict cdf,
                            double *restrict row)
{
    double acc = closest[0] / total;
    cdf[0] = acc;
    for (size_t j = 1; j < n; j++) {
        acc = acc + closest[j] / total;
        cdf[j] = acc;
    }
    const double last = cdf[n - 1];
    size_t lo = 0, hi = n;
    while (lo < hi) {
        const size_t mid = lo + ((hi - lo) >> 1);
        const double v = cdf[mid] / last;
        if (u < v || (v != v && u == u))
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo < n)
        repro_kmeans_closer(data, n, d, lo, closest, row);
    return (int64_t)lo;
}
