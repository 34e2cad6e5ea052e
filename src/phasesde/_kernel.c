/* Native substep loop of the chunk engine.
 *
 * phasesde_advance() advances every live lane of one chunk through
 * substeps [j0, j1): noise draw, effective frequencies, multiplicative
 * kick, exact rotation, blow-up check and gauge drift.  It gives the bytes
 * of the numpy loop in integrator.py, which stays the reference: every
 * operation below is the one numpy performs, in numpy's order.
 *
 *   - complex product a*b: (fma(ar, br, -(ai*bi)), fma(ar, bi, ai*br)),
 *     with a real operand promoted to (x, 0.0) as numpy promotes it;
 *   - complex quotient: numpy's Smith division, without fma;
 *   - complex exp: libm cexp;
 *   - complex abs: larger * sqrt(fma(r, r, 1)), r = smaller / larger,
 *     with numpy's handling of zero, inf and nan.
 *
 * Build with -ffp-contract=off and without -ffast-math, so the compiler
 * neither fuses nor reorders anything; fma() is spelt out where numpy
 * fuses.
 *
 * Normals: each lane draws four per substep from its own numpy bit
 * generator, in stream order, through the inverse normal CDF (scipy's
 * ndtri), nudging a zero uniform to the smallest normal double, as
 * representations.draw_standard_normals does.  Dead lanes are skipped, so
 * their streams are never read again.
 */
#include <complex.h>
#include <math.h>
#include <stdint.h>

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;

typedef struct {
    double re, im;
} cplx;

/* In the order of core.METHOD_NAMES. */
enum { HYBRID, HYBRID_TRUNCATED, POSITIVE_P, WIGNER };

/* One chunk's state and coefficients; mirrored by _native.Chunk. */
typedef struct {
    int32_t method;
    int32_t noisy;        /* draw noise and kick */
    int32_t record_gauge; /* track the drift of alpha_plus*alpha */
    int32_t m;            /* lanes */
    cplx *a, *ap, *b, *bp;
    uint8_t *live;
    double *blow_t, *gauge_max;
    const cplx *apa0;
    const double *apa0_scale;
    bitgen_t **gens;
    double (*ndtri)(double, int);
    const double *sub_dt, *sub_g, *sub_t_end;
    const cplx *q; /* hybrid interface amplitude, per substep */
    const cplx *F; /* positive-P 2x2 factor, per substep, row-major */
    cplx s, cs;    /* hybrid Kerr amplitude s, and 1j*s */
    double omega_a, omega_b, c2a, c2b; /* c2a = 2.0*chi_a, c2b = 2.0*chi_b */
    double threshold;
} chunk_t;

static const cplx I_ = {0.0, 1.0};
static const cplx MINUS_I = {-0.0, -1.0}; /* Python's -1j */

static inline cplx real(double x) { return (cplx){x, 0.0}; }

static inline cplx add(cplx x, cplx y) { return (cplx){x.re + y.re, x.im + y.im}; }

static inline cplx sub(cplx x, cplx y) { return (cplx){x.re - y.re, x.im - y.im}; }

static inline cplx mul(cplx x, cplx y)
{
    return (cplx){fma(x.re, y.re, -(x.im * y.im)), fma(x.re, y.im, x.im * y.re)};
}

static inline cplx divide(cplx x, cplx y)
{
    double yr = fabs(y.re), yi = fabs(y.im);
    if (yr >= yi) {
        if (yr == 0 && yi == 0)
            return (cplx){x.re / yr, x.im / yr};
        double rat = y.im / y.re, scl = 1.0 / (y.re + y.im * rat);
        return (cplx){(x.re + x.im * rat) * scl, (x.im - x.re * rat) * scl};
    }
    double rat = y.re / y.im, scl = 1.0 / (y.im + y.re * rat);
    return (cplx){(x.re * rat + x.im) * scl, (x.im * rat - x.re) * scl};
}

static inline cplx cexp_(cplx x)
{
    double complex r = cexp(CMPLX(x.re, x.im));
    return (cplx){creal(r), cimag(r)};
}

static inline double absolute(cplx x)
{
    double re = fabs(x.re), im = fabs(x.im);
    int re_inf = re == INFINITY, im_inf = im == INFINITY;
    if (re_inf) im = INFINITY;
    if (im_inf) re = INFINITY;
    int re_nan = isnan(re), im_nan = isnan(im);
    if (re_nan) im = NAN;
    if (im_nan) re = NAN;
    double larger = re > im ? re : im, smaller = im < re ? im : re;
    double ratio = (larger == 0 || smaller == INFINITY) ? 0.0 : smaller / larger;
    return sqrt(fma(ratio, ratio, 1.0)) * larger;
}

static inline int bad(cplx x, double threshold)
{
    return !(isfinite(x.re) && isfinite(x.im)) || absolute(x) > threshold;
}

static inline double normal(const chunk_t *c, bitgen_t *gen)
{
    double u = gen->next_double(gen->state);
    return c->ndtri(u == 0.0 ? 2.2250738585072014e-308 : u, 0);
}

/* (F_a, F_b) at the pre-step point; dynamics.*_frequencies. */
static inline void frequencies(const chunk_t *c, double g, cplx A, cplx AP,
                               cplx B, cplx BP, cplx *fa, cplx *fb)
{
    cplx apa = mul(AP, A), bpb = mul(BP, B);
    switch (c->method) {
    case HYBRID:
        *fa = add(add(real(c->omega_a), mul(real(c->c2a), sub(apa, real(1.0)))),
                  mul(real(g), bpb));
        *fb = add(add(real(c->omega_b), mul(real(c->c2b), bpb)),
                  mul(real(g), sub(apa, real(0.5))));
        break;
    case HYBRID_TRUNCATED: {
        double nb = bpb.re;
        *fa = add(add(real(c->omega_a), mul(real(c->c2a), sub(apa, real(1.0)))),
                  real(g * nb));
        *fb = add(real(c->omega_b + c->c2b * nb), mul(real(g), sub(apa, real(0.5))));
        break;
    }
    case POSITIVE_P:
        *fa = add(add(real(c->omega_a), mul(real(c->c2a), apa)), mul(real(g), bpb));
        *fb = add(add(real(c->omega_b), mul(real(c->c2b), bpb)), mul(real(g), apa));
        break;
    default: {
        double na = apa.re, nb = bpb.re;
        *fa = real(c->omega_a + c->c2a * (na - 1.0) + g * (nb - 0.5));
        *fb = real(c->omega_b + c->c2b * (nb - 1.0) + g * (na - 0.5));
    }
    }
}

void phasesde_advance(const chunk_t *c, int64_t j0, int64_t j1)
{
    for (int32_t k = 0; k < c->m; k++) {
        if (!c->live[k])
            continue;
        cplx A = c->a[k], AP = c->ap[k], B = c->b[k], BP = c->bp[k];
        bitgen_t *gen = c->noisy ? c->gens[k] : 0;
        for (int64_t j = j0; j < j1; j++) {
            double dt = c->sub_dt[j];
            cplx fa, fb;
            frequencies(c, c->sub_g[j], A, AP, B, BP, &fa, &fb);

            cplx Am = A, APm = AP, Bm = B, BPm = BP;
            if (c->noisy) {
                double x0 = normal(c, gen), x1 = normal(c, gen);
                double x2 = normal(c, gen), x3 = normal(c, gen);
                cplx sdt = real(sqrt(dt));
                if (c->method == POSITIVE_P) {
                    const cplx *F = c->F + 4 * j;
                    cplx ma = mul(add(mul(F[0], real(x0)), mul(F[1], real(x1))), sdt);
                    cplx mb = mul(add(mul(F[2], real(x0)), mul(F[3], real(x1))), sdt);
                    cplx map = mul(mul(I_, add(mul(F[0], real(x2)), mul(F[1], real(x3)))), sdt);
                    cplx mbp = mul(mul(I_, add(mul(F[2], real(x2)), mul(F[3], real(x3)))), sdt);
                    Am = mul(A, add(real(1.0), ma));
                    APm = mul(AP, add(real(1.0), map));
                    Bm = mul(B, add(real(1.0), mb));
                    BPm = mul(BP, add(real(1.0), mbp));
                } else {
                    cplx q = c->q[j];
                    cplx ix3 = mul(I_, real(x3));
                    cplx e3 = add(real(x2), ix3), em = sub(real(x2), ix3);
                    cplx kick = mul(mul(q, e3), sdt);
                    if (c->method == HYBRID_TRUNCATED) {
                        cplx ee = cexp_(kick);
                        Am = mul(A, ee);
                        APm = divide(AP, ee);
                    } else {
                        Am = mul(A, add(real(1.0), kick));
                        APm = mul(AP, sub(real(1.0), kick));
                    }
                    cplx qem = mul(q, em);
                    Bm = mul(B, add(real(1.0), mul(add(mul(c->cs, real(x0)), qem), sdt)));
                    BPm = mul(BP, add(real(1.0), mul(add(mul(c->s, real(x1)), qem), sdt)));
                }
            }

            cplx rot_a = cexp_(mul(mul(MINUS_I, fa), real(dt)));
            cplx rot_b = cexp_(mul(mul(MINUS_I, fb), real(dt)));
            A = mul(Am, rot_a);
            B = mul(Bm, rot_b);
            if (c->method == WIGNER) {
                AP = (cplx){A.re, -A.im};
                BP = (cplx){B.re, -B.im};
            } else {
                AP = divide(APm, rot_a);
                BP = divide(BPm, rot_b);
            }

            if (bad(A, c->threshold) | bad(AP, c->threshold)
                | bad(B, c->threshold) | bad(BP, c->threshold)) {
                c->blow_t[k] = c->sub_t_end[j];
                c->live[k] = 0;
                A = AP = B = BP = real(0.0);
                break;
            }
            if (c->record_gauge) {
                double drift = absolute(sub(mul(AP, A), c->apa0[k])) / c->apa0_scale[k];
                if (drift > c->gauge_max[k])
                    c->gauge_max[k] = drift;
            }
        }
        c->a[k] = A;
        c->ap[k] = AP;
        c->b[k] = B;
        c->bp[k] = BP;
    }
}
