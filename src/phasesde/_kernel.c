/* Native chunk engine.
 *
 * phasesde_chunk() runs one chunk of trajectories from start to end:
 * stream set-up and initial sampling, then for each segment between two
 * records the substeps (noise draw, effective frequencies, multiplicative
 * kick, exact rotation, blow-up check and gauge drift) and the record of
 * the eleven monomials into the per-batch sums.  It gives the bytes of the
 * numpy loop in integrator.py, which stays the reference: every operation
 * below is the one numpy performs, in numpy's order.
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
 * Streams: lane k is trajectory first+k and owns numpy's Philox4x64-10
 * stream keyed [master_seed, first+k], counter 0 (Salmon et al., SC'11):
 * the counter is incremented before each block of four words, and a
 * uniform is (word >> 11) * 2^-53.  Normals are the inverse normal CDF
 * (scipy's ndtri) of the uniforms, with a zero uniform nudged to the
 * smallest normal double, as representations.draw_standard_normals does.
 * The initial draws come first (mode a, then mode b), then four normals
 * per substep.  Dead lanes are skipped, so their streams are never read
 * again.
 */
#include <complex.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double re, im;
} cplx;

/* In the order of core.METHOD_NAMES. */
enum { HYBRID, HYBRID_TRUNCATED, POSITIVE_P, WIGNER };

enum { N_MONOMIALS = 11 }; /* core.MONOMIALS */

/* One chunk's inputs, coefficients and outputs; mirrored by _kernel.Chunk. */
typedef struct {
    int32_t method;
    int32_t noisy;        /* draw noise and kick */
    int32_t record_gauge; /* track the drift of alpha_plus*alpha */
    int32_t r_a, r_b;     /* 2: Wigner-sampled mode, 1: delta */
    int64_t m;            /* lanes */
    int64_t n_batches, off; /* lane k belongs to batch (off + k) % n_batches */
    int64_t n_samples;
    uint64_t master_seed, first;
    cplx gamma_a, gamma_b;
    cplx *sums;           /* (n_samples, n_batches, N_MONOMIALS) */
    int64_t *live_counts; /* (n_samples, n_batches) */
    double *blow_t, *gauge_max;
    double (*ndtri)(double, int);
    const double *sub_dt, *sub_g, *sub_t_end;
    const int64_t *ends; /* sample s >= 1 is recorded after substep ends[s-1]-1 */
    const cplx *q; /* hybrid interface amplitude, per substep */
    const cplx *F; /* positive-P 2x2 factor, per substep, row-major */
    cplx s, cs;    /* hybrid Kerr amplitude s, and 1j*s */
    double omega_a, omega_b, c2a, c2b; /* c2a = 2.0*chi_a, c2b = 2.0*chi_b */
    double threshold;
} chunk_t;

/* numpy's philox_state, less its 32-bit buffer. */
typedef struct {
    uint64_t ctr[4], key[2], buf[4];
    int pos;
} philox_t;

/* One trajectory between two segments. */
typedef struct {
    cplx a, ap, b, bp, apa0;
    double apa0_scale;
    int live;
    philox_t rng;
} lane_t;

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

/* ~isfinite(x) | (abs(x) > threshold).  A value whose components are both
 * at most threshold/1.5 in magnitude needs no square root: abs(x) <=
 * sqrt(2) * (1 + 2^-52) * max(|re|, |im|) < 1.5 * max(|re|, |im|).  Both
 * comparisons are false for nan and inf, which take the exact path. */
static inline int bad(cplx x, double threshold)
{
    if (fabs(x.re) * 1.5 <= threshold && fabs(x.im) * 1.5 <= threshold)
        return 0;
    return !(isfinite(x.re) && isfinite(x.im)) || absolute(x) > threshold;
}

static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}

/* numpy's philox_next: the next 64-bit word of the stream. */
static inline uint64_t philox_next(philox_t *p)
{
    if (p->pos < 4)
        return p->buf[p->pos++];
    if (++p->ctr[0] == 0 && ++p->ctr[1] == 0 && ++p->ctr[2] == 0)
        ++p->ctr[3];
    uint64_t c0 = p->ctr[0], c1 = p->ctr[1], c2 = p->ctr[2], c3 = p->ctr[3];
    uint64_t k0 = p->key[0], k1 = p->key[1];
    for (int round = 0; round < 10; round++) {
        if (round) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        uint64_t hi0, hi1;
        uint64_t lo0 = mulhilo(0xD2E7470EE14C6C93ULL, c0, &hi0);
        uint64_t lo1 = mulhilo(0xCA5A826395121157ULL, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
    }
    p->buf[0] = c0;
    p->buf[1] = c1;
    p->buf[2] = c2;
    p->buf[3] = c3;
    p->pos = 1;
    return c0;
}

static inline double normal(const chunk_t *c, philox_t *p)
{
    double u = (double)(philox_next(p) >> 11) * (1.0 / 9007199254740992.0);
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

/* Substeps j0..j1-1 of live lane k. */
static void advance(const chunk_t *c, lane_t *L, int64_t k, int64_t j0, int64_t j1)
{
    cplx A = L->a, AP = L->ap, B = L->b, BP = L->bp;
    for (int64_t j = j0; j < j1; j++) {
        double dt = c->sub_dt[j];
        cplx fa, fb;
        frequencies(c, c->sub_g[j], A, AP, B, BP, &fa, &fb);

        cplx Am = A, APm = AP, Bm = B, BPm = BP;
        if (c->noisy) {
            double x0 = normal(c, &L->rng), x1 = normal(c, &L->rng);
            double x2 = normal(c, &L->rng), x3 = normal(c, &L->rng);
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
            L->live = 0;
            A = AP = B = BP = real(0.0);
            break;
        }
        if (c->record_gauge) {
            double drift = absolute(sub(mul(AP, A), L->apa0)) / L->apa0_scale;
            if (drift > c->gauge_max[k])
                c->gauge_max[k] = drift;
        }
    }
    L->a = A;
    L->ap = AP;
    L->b = B;
    L->bp = BP;
}

/* (alpha, alpha_plus) of one mode; representations.sample_wigner_coherent
 * for r = 2, in the order of its Python and numpy scalar arithmetic:
 * complex(gamma) + 0.5 * (n1 + 1j * n2), then the conjugate.  For r = 1
 * the delta (gamma, conj gamma) of sample_positive_p_coherent. */
static void sample(const chunk_t *c, philox_t *rng, int r, cplx gamma,
                   cplx *alpha, cplx *alpha_plus)
{
    cplx x = gamma;
    if (r == 2) {
        double n1 = normal(c, rng), n2 = normal(c, rng);
        double jr = 0.0 * n2 - 1.0 * 0.0, ji = 0.0 * 0.0 + 1.0 * n2; /* 1j*n2 */
        double ur = n1 + jr, ui = 0.0 + ji;                          /* n1 + */
        x = (cplx){gamma.re + (0.5 * ur - 0.0 * ui),                 /* 0.5 * */
                   gamma.im + (0.5 * ui + 0.0 * ur)};
    }
    *alpha = x;
    *alpha_plus = (cplx){x.re, -x.im};
}

static void init_lane(const chunk_t *c, lane_t *L, uint64_t index)
{
    L->rng = (philox_t){.key = {c->master_seed, index}, .pos = 4};
    sample(c, &L->rng, c->r_a, c->gamma_a, &L->a, &L->ap);
    sample(c, &L->rng, c->r_b, c->gamma_b, &L->b, &L->bp);
    L->apa0 = mul(L->ap, L->a);
    double scale = absolute(L->apa0);
    L->apa0_scale = scale > 0 ? scale : 1.0;
    L->live = 1;
}

/* Below 2^200 in every component, no monomial of a lane and no sum of a
 * chunk's monomials can overflow. */
static inline int small(cplx x)
{
    return fabs(x.re) < 0x1p200 && fabs(x.im) < 0x1p200;
}

/* Adds lane L's monomials, in core.MONOMIALS order, to one batch's row of
 * sample s; a dead lane adds +0.0.  Each cell starts at zero and takes its
 * lanes in ascending order, which gives the bytes of the numpy loop's
 * reduce, signed zeros included.  Returns 1 for a live lane that is not
 * small (say, one with a non-finite initial amplitude): its monomials may
 * be nan, and which nan numpy gives depends on where the lane falls in
 * numpy's vector loop. */
static int record(const chunk_t *c, const lane_t *L, int64_t s, int64_t batch)
{
    cplx *cell = c->sums + (s * c->n_batches + batch) * N_MONOMIALS;
    if (!L->live) {
        for (int i = 0; i < N_MONOMIALS; i++)
            cell[i] = add(cell[i], real(0.0));
        return 0;
    }
    cplx apa = mul(L->ap, L->a);
    cplx v[N_MONOMIALS] = {L->a, L->ap, L->b, L->bp, apa, mul(L->bp, L->b),
                           mul(apa, apa), mul(L->b, L->b), mul(L->bp, L->bp),
                           mul(apa, L->b), mul(apa, L->bp)};
    for (int i = 0; i < N_MONOMIALS; i++)
        cell[i] = add(cell[i], v[i]);
    c->live_counts[s * c->n_batches + batch]++;
    return !(small(L->a) && small(L->ap) && small(L->b) && small(L->bp));
}

/* The whole chunk: initial sampling and record 0, then each segment's
 * substeps and its record, lane by lane.  Returns 0, or 1 if some record
 * met a live lane that is not small (the sums may then differ from
 * numpy's in their nan bits, and the chunk must run on numpy), or -1 if
 * out of memory. */
int phasesde_chunk(const chunk_t *c)
{
    lane_t *lanes = malloc(sizeof(lane_t) * (c->m > 0 ? c->m : 1));
    if (!lanes)
        return -1;
    int status = 0;
    for (int64_t k = 0, batch = c->off; k < c->m; k++) {
        init_lane(c, &lanes[k], c->first + (uint64_t)k);
        status |= record(c, &lanes[k], 0, batch);
        if (++batch == c->n_batches)
            batch = 0;
    }
    for (int64_t s = 1, j0 = 0; s < c->n_samples; j0 = c->ends[s - 1], s++) {
        for (int64_t k = 0, batch = c->off; k < c->m; k++) {
            if (lanes[k].live)
                advance(c, &lanes[k], k, j0, c->ends[s - 1]);
            status |= record(c, &lanes[k], s, batch);
            if (++batch == c->n_batches)
                batch = 0;
        }
    }
    free(lanes);
    return status;
}
