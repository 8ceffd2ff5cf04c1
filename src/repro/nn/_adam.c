/* Adam's element-wise update as one loop: the compiled kernel of
 * repro.nn.optim.Adam.step.
 *
 * Each element goes through the thirteen operations of the numpy
 * kernel (Adam._numpy_step), in the same order and with the same
 * scalars, so the two give the same bits:
 *
 *     m    = m * b1 + g * (1 - b1)
 *     v    = v * b2 + (g * g) * (1 - b2)
 *     out  = sqrt(v) * inv_sqrt_bias2 + eps
 *     out  = (m / out) * step_size
 *     data = data - out
 *
 * Built with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math; -fno-math-errno lets sqrt vectorize, and IEEE sqrt and
 * division are correctly rounded on every path.
 */
#include <math.h>
#include <stddef.h>

void repro_adam_step(double *restrict data, const double *restrict grad,
                     double *restrict m, double *restrict v, size_t n,
                     double b1, double one_minus_b1,
                     double b2, double one_minus_b2,
                     double inv_sqrt_bias2, double eps, double step_size)
{
    for (size_t i = 0; i < n; i++) {
        const double g = grad[i];
        const double mi = m[i] * b1 + g * one_minus_b1;
        const double vi = v[i] * b2 + (g * g) * one_minus_b2;
        const double denom = sqrt(vi) * inv_sqrt_bias2 + eps;
        m[i] = mi;
        v[i] = vi;
        data[i] = data[i] - (mi / denom) * step_size;
    }
}
