/* Native chunk engine.
 *
 * phasesde_chunk() runs one chunk of trajectories from start to end:
 * stream set-up and initial sampling, then for each segment between two
 * records the substeps (noise draw, effective frequencies, multiplicative
 * kick, exact rotation, blow-up check and gauge drift) and the record of
 * the eleven monomials into the per-batch sums.  It gives the bits of the
 * numpy loop in integrator.py, which stays the reference, on every value
 * a config that core.EnsembleConfig accepts produces: every operation
 * below is the one numpy performs, in numpy's order.  Only numpy's cases
 * for values no such run produces are left out, each on an invariant
 * stated at absolute, divide4, record4 or sample; chiefly, a live lane is
 * finite at every record and substep start (lane_threshold < 2^200).
 *
 *   - complex product a*b: (fma(ar, br, -(ai*bi)), fma(ar, bi, ai*br)),
 *     with a real operand promoted to (x, 0.0) as numpy promotes it;
 *   - complex quotient: numpy's Smith division, without fma;
 *   - complex exp: libm cexp, whose glibc 2.36 code is ported below for
 *     the small arguments of a step, bit for bit;
 *   - complex abs: larger * sqrt(fma(r, r, 1)), r = smaller / larger,
 *     with numpy's handling of zero;
 *   - normals: Cephes ndtri, ported below as representations.ndtri
 *     ports it; both give scipy.special.ndtri's bits.
 *
 * Build with -ffp-contract=off and without -ffast-math, so the compiler
 * neither fuses nor reorders anything; fma() is spelt out where numpy
 * fuses.
 *
 * Nothing at file scope is writable: the tables are const, and each call
 * allocates its own lanes and tile accumulator.  So chunks run on several
 * threads at once.
 *
 * Lanes step four at a time, a tile of segments at a time.  A tile is
 * consecutive segments (sample 0's, of no substeps, opens the first),
 * taken until they hold TILE substeps or TILE segments.  For each tile,
 * the live lanes are grouped in ascending order, four to a group, and a
 * group holds each of alpha, alpha_plus, beta and beta_plus as two
 * vectors of four doubles, real and imaginary parts.  The frequencies,
 * the kick, the rotation's products and quotients and the blow-up
 * check's fast path run on the whole group, element by element in the
 * scalar IEEE order above, so each lane rounds as it would alone: the
 * products fuse with _mm256_fmadd_pd under __FMA__ and with fma() per
 * element without it.  So does cexp, through the port, but for a slot
 * outside the port's range, which calls libm.  The Philox stream, the
 * normals, the exact blow-up test and the gauge drift's abs stay per
 * lane; within a lane's fill, built with -DPHASESDE_AVX512 (where the CPU
 * has AVX-512F, DQ and VL), Philox runs 16 blocks at a time in vector
 * registers, and ndtri's tail is gathered eight values at a time (below).
 * A short last group is padded with
 * dead slots, which step zeros (a fixed point of every update), draw no
 * normals and are never written back; a lane that dies becomes one until
 * the tile ends.
 *
 * Records: a group records each sample of its tile from its vectors, in
 * record4, into the tile's accumulator, whose cells start at +0.0; once
 * every group has run the tile, each cell is added to its cell of sums,
 * as the numpy loop adds a reduce to sums.  Within a tile, a group
 * records all its samples before the next group records any, and each
 * group's lanes rise, so each cell takes its lanes in ascending order,
 * as the reduce takes its rows.
 *
 * Streams: lane k is trajectory first+k and owns numpy's Philox4x64-10
 * stream keyed [master_seed, first+k], counter 0 (Salmon et al., SC'11):
 * the counter is incremented before each block of four words, and a
 * uniform is (word >> 11) * 2^-53.  philox_next gives one word at a time;
 * with AVX-512, philox_blocks gives the uniforms of 16 blocks at a time,
 * two runs of 8, one block per 64-bit element: the 64 x 64 -> 128-bit
 * products from four vpmuludq each, the key XORs by vpternlogq, and an
 * in-register transpose into stream order.  A fill takes its buffered
 * words and the blocks that do not make up a batch of 16 from
 * philox_next, and so does a batch whose counter's low word would wrap;
 * either way it reads the same words.  Normals are the inverse normal CDF of
 * the uniforms, with a zero uniform nudged to the smallest normal double,
 * as representations.draw_standard_normals does.  The initial draws come
 * first (mode a, then mode b), then four normals per substep, drawn for
 * up to FILL substeps of a tile at a time.  Each stream is read in that
 * order wherever the fills break.  A lane that dies leaves the rest of
 * its fill unread, and dead lanes are skipped, so their streams are
 * never read again.
 *
 * The inverse CDF is a port of Cephes ndtri (Moshier, Methods and
 * Programs for Mathematical Functions, 1989), which scipy.special.ndtri
 * evaluates: the same rational approximations, in the same order of IEEE
 * +, -, *, / and sqrt, with glibc log, give scipy's bits.  Those five
 * operations round alike in vector lanes and in scalar code, so
 * phasesde_ndtri evaluates the polynomials four lanes at a time and
 * calls log one value at a time.  The values in the tails are gathered
 * into a packed list without a branch on any value: the lower-tail
 * argument is picked by a mask, a tail value's sign is set by flipping
 * its sign bit, and with AVX-512 vcompresspd and vpcompressd pack the
 * values and their indices.
 */
#include <complex.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined __AVX__ || defined PHASESDE_AVX512
#include <immintrin.h>
#endif

typedef struct {
    double re, im;
} cplx;

/* In the order of core.METHOD_NAMES. */
enum { HYBRID, HYBRID_TRUNCATED, POSITIVE_P, WIGNER };

enum { N_MONOMIALS = 11 }; /* core.MONOMIALS */

/* One chunk's inputs, coefficients and outputs; mirrored by _kernel.Chunk. */
typedef struct {
    int32_t method;       /* all but WIGNER draw noise and kick */
    int32_t record_gauge; /* track the drift of alpha_plus*alpha */
    int32_t r_a, r_b;     /* 2: Wigner-sampled mode, 1: delta */
    int32_t cexp_port;    /* cexp4 may use the port: phasesde_cexp_check */
    int64_t m;            /* lanes */
    int64_t n_batches;    /* lane k belongs to batch (first + k) % n_batches */
    int64_t n_samples;
    uint64_t master_seed, first;
    double gamma_a, gamma_b; /* coherent start, sqrt(N_a0) and sqrt(N_b0) */
    cplx *sums;           /* (n_samples, n_batches, N_MONOMIALS) */
    int64_t *live_counts; /* (n_samples, n_batches) */
    double *blow_t, *gauge_max;
    const double *sub_dt, *sub_g, *sub_t_end;
    const int64_t *ends; /* sample s >= 1 is recorded after substep ends[s-1]-1 */
    const cplx *q; /* hybrid interface amplitude, per substep */
    const cplx *F; /* positive-P 2x2 factor, per substep, row-major */
    cplx s;        /* hybrid Kerr amplitude s */
    double omega_a, omega_b, c2a, c2b; /* c2a = 2.0*chi_a, c2b = 2.0*chi_b */
    double threshold;
} chunk_t;

/* numpy's philox_state, less its 32-bit buffer. */
typedef struct {
    uint64_t ctr[4], key[2], buf[4];
    int pos;
} philox_t;

/* One trajectory between two tiles. */
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

static inline cplx mul(cplx x, cplx y)
{
    return (cplx){fma(x.re, y.re, -(x.im * y.im)), fma(x.re, y.im, x.im * y.re)};
}

/* numpy's abs, for a finite x only: bad() tests finiteness first, and the
 * gauge drift and the initial scale see live lanes, which are finite. */
static inline double absolute(cplx x)
{
    double re = fabs(x.re), im = fabs(x.im);
    double larger = re > im ? re : im, smaller = im < re ? im : re;
    double ratio = larger == 0 ? 0.0 : smaller / larger;
    return sqrt(fma(ratio, ratio, 1.0)) * larger;
}

/* ~isfinite(x) | (abs(x) > threshold), the exact test behind inside4. */
static inline int bad(cplx x, double threshold)
{
    return !(isfinite(x.re) && isfinite(x.im)) || absolute(x) > threshold;
}

typedef double v4d __attribute__((vector_size(32)));
typedef int64_t v4i __attribute__((vector_size(32)));

static inline v4d load4(const double *p)
{
    v4d v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

static inline void store4(double *p, v4d v) { __builtin_memcpy(p, &v, sizeof v); }

static inline v4d splat(double a) { return (v4d){a, a, a, a}; }

static inline v4d fabs4(v4d x) { return (v4d)((v4i)x & 0x7fffffffffffffff); }

/* a where mask m is set, else b. */
static inline v4d blend(v4i m, v4d a, v4d b)
{
    return (v4d)(((v4i)a & m) | ((v4i)b & ~m));
}

/* Bit i set where element i of mask m is. */
static inline int bits(v4i m)
{
#ifdef __AVX__
    return _mm256_movemask_pd((__m256d)m);
#else
    return (int)((m[0] & 1) | (m[1] & 2) | (m[2] & 4) | (m[3] & 8));
#endif
}

/* fma in each element: one rounding, as the scalar fma. */
static inline v4d fma4(v4d a, v4d b, v4d c)
{
#ifdef __FMA__
    return _mm256_fmadd_pd(a, b, c);
#else
    return (v4d){fma(a[0], b[0], c[0]), fma(a[1], b[1], c[1]),
                 fma(a[2], b[2], c[2]), fma(a[3], b[3], c[3])};
#endif
}

/* Four complex numbers, element i of each part belonging to slot i of a
 * group of lanes.  Each operation below is the scalar one of numpy's
 * complex loops, element by element, so every slot rounds as a lane
 * stepped alone would. */
typedef struct {
    v4d re, im;
} c4;

static inline c4 real4(v4d x) { return (c4){x, splat(0.0)}; }

static inline c4 bcast(cplx x) { return (c4){splat(x.re), splat(x.im)}; }

static inline cplx slot(c4 x, int i) { return (cplx){x.re[i], x.im[i]}; }

static inline void put(c4 *x, int i, cplx v)
{
    x->re[i] = v.re;
    x->im[i] = v.im;
}

static inline c4 add4(c4 x, c4 y) { return (c4){x.re + y.re, x.im + y.im}; }

static inline c4 sub4(c4 x, c4 y) { return (c4){x.re - y.re, x.im - y.im}; }

/* (fma(ar, br, -(ai*bi)), fma(ar, bi, ai*br)) */
static inline c4 mul4(c4 x, c4 y)
{
    return (c4){fma4(x.re, y.re, -(x.im * y.im)), fma4(x.re, y.im, x.im * y.re)};
}

/* numpy's Smith division.  Where |y.re| >= |y.im| it is
 *   rat = y.im / y.re, scl = 1 / (y.re + y.im * rat),
 *   ((x.re + x.im * rat) * scl, (x.im - x.re * rat) * scl),
 * elsewhere the same with the parts of y swapped,
 *   rat = y.re / y.im, scl = 1 / (y.im + y.re * rat),
 *   ((x.re * rat + x.im) * scl, (x.im * rat - x.re) * scl).
 * Both branches share their two divisions: the divisor's parts are picked
 * per slot first, and both sums of each part are formed, each in its own
 * branch's operand order, then picked.  numpy's branch for a zero y is
 * left out: y is then a factor that underflowed, the quotient non-finite
 * with or without it, and the lane dies at this substep in both engines. */
static inline c4 divide4(c4 x, c4 y)
{
    v4d yr = fabs4(y.re), yi = fabs4(y.im);
    v4i wide = yr >= yi;
    v4d p = blend(wide, y.im, y.re), q = blend(wide, y.re, y.im);
    v4d rat = p / q, scl = 1.0 / (q + p * rat);
    return (c4){blend(wide, x.re + x.im * rat, x.re * rat + x.im) * scl,
                blend(wide, x.im - x.re * rat, x.im * rat - x.re) * scl};
}

/* glibc 2.36's cexp, as x86_64 libm computes it with the FMA variants of
 * sincos and exp that it picks on a CPU with FMA, ported four slots at a
 * time for |Re z| < 512 and |Im z| < 0.126.  For z = x + iy, cexp gives
 * (exp(x) * cos y, exp(x) * sin y):
 *
 *   - sin y (s_sin.c, do_sin): y for |y| < 2^-27, else TAYLOR_SIN,
 *     y + y * yy * p(yy) for yy = y * y;
 *   - cos y (do_cos): 1 for |y| < 2^-27, else the row of __sincostab for
 *     i/128 nearest to |y|, found as the low word of 0x1.8p45 + |y|, and
 *     polynomials of the rest x = |y| - i/128;
 *   - exp x (e_exp.c): 1.0 + x for |x| < 2^-54, else 2^(k/128) * exp(r),
 *     the power from a 128-entry table and r = x - k ln2/128.
 *
 * Where libm's machine code fuses a multiply and an add, the port calls
 * fma; every other operation is the C source's, in its order.  The tables
 * and coefficients are glibc's, copied from libm.  A libm built otherwise
 * (say, the SSE2 variants on a CPU without FMA) rounds differently, so the
 * kernel checks the port against libm once at load, phasesde_cexp_check,
 * and where they differ every slot calls libm. */

/* __sincostab's rows for i/128, i = 0..16: sin and a correction, then cos
 * and a correction. */
static const double SINCOS[17][4] = {
    {0.0, 0.0,
     0x1.0000000000000p0, 0.0},
    {0x1.fffeaaaaeeeefp-8, -0x1.e45e2ec67b77cp-62,
     0x1.fffc000155552p-1, 0x1.f4a01a0196daep-55},
    {0x1.fffaaaaeeeed5p-7, -0x1.2ab639a9f0777p-63,
     0x1.fff000155549fp-1, 0x1.28a28a03a5ef3p-55},
    {0x1.7ff7001033255p-6, 0x1.efe2b51527336p-64,
     0x1.ffdc006bff7e6p-1, 0x1.ae6dae86977bdp-55},
    {0x1.ffeaaaeeee86fp-6, -0x1.cd406fb224ae2p-60,
     0x1.ffc00155527d3p-1, -0x1.3b54492d89b5bp-55},
    {0x1.3feb2b12d45d5p-5, 0x1.4ec54203d1c11p-60,
     0x1.ff9c03414a7bap-1, 0x1.991f4be6c59bfp-57},
    {0x1.7fdc01032fba9p-5, -0x1.599bdf46e997ap-59,
     0x1.ff7006bfdf99fp-1, -0x1.8b3b560648d5fp-56},
    {0x1.bfc6d78586dacp-5, 0x1.8e4fd03dbf236p-62,
     0x1.ff3c0c8103a31p-1, 0x1.4856dbddc0e66p-56},
    {0x1.ffaaaeeed4edbp-5, -0x1.2d16d32684b69p-59,
     0x1.ff0015549f4d3p-1, 0x1.328387b99426fp-55},
    {0x1.1fc343d808befp-4, -0x1.f3d32e6f3be4fp-58,
     0x1.febc222a8ef9fp-1, 0x1.7934934f54c77p-58},
    {0x1.3facb12d1755bp-4, -0x1.921915299468cp-58,
     0x1.fe7034129ef6fp-1, -0x1.cbf4337c96f97p-57},
    {0x1.5f911fd10b737p-4, -0x1.0184f02be9102p-58,
     0x1.fe1c4c3c873ebp-1, -0x1.5a9c9057c4a02p-60},
    {0x1.7f701032550e4p-4, 0x1.afc2d1800501ap-60,
     0x1.fdc06bf7e6b9bp-1, 0x1.31902b535f8dbp-55},
    {0x1.9f4902d55d1f9p-4, 0x1.2696d7eac1dc1p-58,
     0x1.fd5c94b43e000p-1, -0x1.2e768cb4f92f9p-57},
    {0x1.bf1b78568391dp-4, 0x1.e91841dea4cc8p-58,
     0x1.fcf0c800e99b1p-1, 0x1.ea3d786d186acp-57},
    {0x1.dee6f16c1cce6p-4, -0x1.50f8e2fb71673p-59,
     0x1.fc7d078d1bc88p-1, 0x1.075d2447db685p-55},
    {0x1.feaaeee86ee36p-4, -0x1.afcb2bcc6f03bp-59,
     0x1.fc015527d5bd3p-1, 0x1.b68f35094efb8p-55},
};

static const double S1 = -0x1.5555555555555p-3, S2 = 0x1.1111111110ecep-7,
                    S3 = -0x1.a01a019db08b8p-13, S4 = 0x1.71de27b9a7ed9p-19,
                    S5 = -0x1.addffc2fcdf59p-26;        /* TAYLOR_SIN */
static const double SN3 = -0x1.5555555555515p-3, SN5 = 0x1.11110e829872fp-7,
                    CS2 = 0x1p-1, CS4 = -0x1.5555555555535p-5,
                    CS6 = 0x1.6c16bedd9e239p-10;        /* do_cos */
#define SINCOS_SHIFT 0x1.8p45

/* __exp_data: 128 / ln2, -ln2 / 128 in two parts, the polynomial's C2 to
 * C5 and the rounding shift; then 2^(i/128) for i = 0..127, as the bits
 * of a correction and the bits of the power less i << 45. */
static const double INVLN2N = 0x1.71547652b82fep7,
                    NEGLN2HIN = -0x1.62e42fefa0000p-8,
                    NEGLN2LON = -0x1.cf79abc9e3b3ap-47,
                    C2 = 0x1.ffffffffffdbdp-2, C3 = 0x1.555555555543cp-3,
                    C4 = 0x1.55555cf172b91p-5, C5 = 0x1.1111167a4d017p-7;
#define EXP_SHIFT 0x1.8p52
static const uint64_t EXP_TAB[256] = {
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
};

typedef uint64_t v4u __attribute__((vector_size(32)));

/* The port, in every slot; each must be in its range.  Its argument and
 * result go through memory, whole vectors at a time: passed by value, a
 * c4 is split into halves, and reading a vector back from two stores
 * stalls. */
static void glibc_cexp4(const c4 *zp, c4 *out)
{
    c4 z = *zp;
    v4d y = z.im, ay = fabs4(y), yy = y * y;
    v4d p = fma4(fma4(fma4(fma4(splat(S5), yy, splat(S4)), yy, splat(S3)),
                      yy, splat(S2)), yy, splat(S1));
    v4d sin_y = y + fma4(p * y, yy, splat(0.0));

    v4d u = SINCOS_SHIFT + ay, x = ay - (u - SINCOS_SHIFT), xx = x * x;
    v4d s = fma4(x * xx, fma4(xx, splat(SN5), splat(SN3)), x);
    v4d c = xx * fma4(xx, fma4(xx, splat(CS6), splat(CS4)), splat(CS2));
    v4u k = (v4u)u & 0xffffffff;
    const double *t0 = SINCOS[k[0]], *t1 = SINCOS[k[1]];
    const double *t2 = SINCOS[k[2]], *t3 = SINCOS[k[3]];
    v4d sn = {t0[0], t1[0], t2[0], t3[0]}, ssn = {t0[1], t1[1], t2[1], t3[1]};
    v4d cs = {t0[2], t1[2], t2[2], t3[2]}, ccs = {t0[3], t1[3], t2[3], t3[3]};
    v4d cos_y = cs + fma4(-sn, s, fma4(-cs, c, fma4(-s, ssn, ccs)));
    v4i flat = ay < 0x1p-27;
    sin_y = blend(flat, y, sin_y);
    cos_y = blend(flat, splat(1.0), cos_y);

    v4i tiny = fabs4(z.re) < 0x1p-54;
    v4d e = 1.0 + z.re;
    if (bits(tiny) != 15) { /* always so for wigner's rotations */
        v4d kd = fma4(splat(INVLN2N), z.re, splat(EXP_SHIFT));
        v4u ki = (v4u)kd, i = 2 * (ki % 128);
        kd = kd - EXP_SHIFT;
        v4d r = fma4(kd, splat(NEGLN2LON), fma4(kd, splat(NEGLN2HIN), z.re));
        v4d tail = (v4d)(v4u){EXP_TAB[i[0]], EXP_TAB[i[1]], EXP_TAB[i[2]],
                              EXP_TAB[i[3]]};
        v4u sbits = (v4u){EXP_TAB[i[0] + 1], EXP_TAB[i[1] + 1],
                          EXP_TAB[i[2] + 1], EXP_TAB[i[3] + 1]} + (ki << 45);
        v4d r2 = r * r, scale = (v4d)sbits;
        v4d tmp = fma4(r2 * r2, fma4(r, splat(C5), splat(C4)),
                       fma4(r2, fma4(r, splat(C3), splat(C2)), tail + r));
        e = blend(tiny, e, fma4(scale, tmp, scale));
    }
    out->re = e * cos_y;
    out->im = e * sin_y;
}

/* libm cexp in each slot: the port where port is 1 and the slot is in its
 * range, else a call of libm. */
static inline c4 cexp4(c4 z, int port)
{
    v4i fast = (fabs4(z.re) < 512.0) & (fabs4(z.im) < 0.126) & -(int64_t)port;
    c4 r, in = {blend(fast, z.re, splat(0.0)), blend(fast, z.im, splat(0.0))};
    glibc_cexp4(&in, &r);
    for (int i = 0, slow = ~bits(fast) & 15; slow; i++, slow >>= 1)
        if (slow & 1) {
            double complex e = cexp(CMPLX(z.re[i], z.im[i]));
            put(&r, i, (cplx){creal(e), cimag(e)});
        }
    return r;
}

/* out[i] = cexp(z[i]) for i < n, four at a time through cexp4. */
void phasesde_cexp(const cplx *z, cplx *out, int64_t n, int32_t port)
{
    for (int64_t i = 0; i < n; i += 4) {
        int k = n - i < 4 ? (int)(n - i) : 4;
        c4 x = bcast(real(0.0));
        for (int j = 0; j < k; j++)
            put(&x, j, z[i + j]);
        c4 r = cexp4(x, port);
        for (int j = 0; j < k; j++)
            out[i + j] = slot(r, j);
    }
}

/* 1 if the port gives libm's bits on 4096 seeded arguments, else 0.  Each
 * part is a random sign times 2^-e times a uniform mantissa in [1, 2), e
 * uniform in 0..63, scaled to the port's range: zeros aside, that reaches
 * both branches of each stage and every row of both tables. */
int phasesde_cexp_check(void)
{
    uint64_t w = 0x9E3779B97F4A7C15ULL; /* xorshift64 */
    for (int g = 0; g < 1024; g++) {
        c4 z;
        for (int i = 0; i < 8; i++) {
            w ^= w << 13;
            w ^= w >> 7;
            w ^= w << 17;
            double v = ldexp(1.0 + (double)(w >> 12) * 0x1p-52,
                             -(int)(w & 63)) * (w >> 6 & 1 ? -1.0 : 1.0);
            if (i < 4)
                z.re[i] = v * 255.0;
            else
                z.im[i - 4] = v * 0.0625;
        }
        c4 a = cexp4(z, 1), b = cexp4(z, 0);
        if (bits(((v4i)a.re != (v4i)b.re) | ((v4i)a.im != (v4i)b.im)))
            return 0;
    }
    return 1;
}

/* Slots where both components of x are at most lim/1.5 in magnitude, and
 * so not bad: abs(x) <= sqrt(2) * (1 + 2^-52) * max(|re|, |im|) < 1.5 *
 * max(|re|, |im|).  Both comparisons are false for nan and inf, which
 * must take the exact test. */
static inline v4i inside4(c4 x, v4d lim)
{
    return (fabs4(x.re) * 1.5 <= lim) & (fabs4(x.im) * 1.5 <= lim);
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

/* (word >> 11) * 2^-53, with a zero nudged to the smallest normal double. */
static inline double uniform(uint64_t word)
{
    double u = (double)(word >> 11) * (1.0 / 9007199254740992.0);
    return u == 0.0 ? 2.2250738585072014e-308 : u;
}

#ifdef PHASESDE_AVX512
/* Only the functions that carry this attribute use AVX-512, so the rest
 * of the file compiles as it does without it (-mavx512f would enable FMA
 * throughout). */
#define AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))

/* The high words of each element's 128-bit product with m, and its low
 * words into *lo: four 32 x 32 -> 64 products (vpmuludq) per element,
 * for a = a1 * 2^32 + a0 and m = m1 * 2^32 + m0. */
AVX512 static inline __m512i mulhilo8(__m512i a, uint64_t m, __m512i *lo)
{
    const __m512i m0 = _mm512_set1_epi64(m & 0xffffffff);
    const __m512i m1 = _mm512_set1_epi64(m >> 32);
    __m512i a1 = _mm512_srli_epi64(a, 32);
    __m512i p00 = _mm512_mul_epu32(a, m0), p01 = _mm512_mul_epu32(a, m1);
    __m512i p10 = _mm512_mul_epu32(a1, m0), p11 = _mm512_mul_epu32(a1, m1);
    __m512i t = _mm512_add_epi64(p01, _mm512_srli_epi64(p00, 32));
    __m512i w = _mm512_add_epi64(
        p10, _mm512_and_si512(t, _mm512_set1_epi64(0xffffffff)));
    /* (w << 32) | (p00 & 0xffffffff): the odd 32-bit halves from w. */
    *lo = _mm512_mask_blend_epi32(0xAAAA, p00, _mm512_slli_epi64(w, 32));
    return _mm512_add_epi64(_mm512_add_epi64(p11, _mm512_srli_epi64(t, 32)),
                            _mm512_srli_epi64(w, 32));
}

/* The uniforms of 8 blocks, word w of block i in element i of x[w], into
 * u[0..31] in stream order: word w of block i at u[4i + w].  The words
 * are converted as uniform() converts them, then transposed: unpacking
 * pairs words 0 and 1, and 2 and 3, of the even and of the odd blocks,
 * and permutex2var joins the pairs into blocks i and i + 2, one per
 * 256-bit half. */
AVX512 static inline void store8(double *u, const __m512i x[4])
{
    __m512d v[4];
    for (int k = 0; k < 4; k++) {
        __m512i bits = _mm512_srli_epi64(x[k], 11);
        v[k] = _mm512_mul_pd(_mm512_cvtepu64_pd(bits),
                             _mm512_set1_pd(1.0 / 9007199254740992.0));
        v[k] = _mm512_mask_mov_pd(
            v[k], _mm512_cmpeq_epi64_mask(bits, _mm512_setzero_si512()),
            _mm512_set1_pd(2.2250738585072014e-308));
    }
    __m512d t[4] = {_mm512_unpacklo_pd(v[0], v[1]),  /* blocks 0, 2, 4, 6 */
                    _mm512_unpackhi_pd(v[0], v[1]),  /* blocks 1, 3, 5, 7 */
                    _mm512_unpacklo_pd(v[2], v[3]),
                    _mm512_unpackhi_pd(v[2], v[3])};
    const __m512i first = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i second = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    for (int odd = 0; odd < 2; odd++) {
        __m512d lo = _mm512_permutex2var_pd(t[odd], first, t[odd + 2]);
        __m512d hi = _mm512_permutex2var_pd(t[odd], second, t[odd + 2]);
        double *b = u + 4 * odd;
        _mm256_storeu_pd(b, _mm512_castpd512_pd256(lo));       /* block odd */
        _mm256_storeu_pd(b + 8, _mm512_extractf64x4_pd(lo, 1));
        _mm256_storeu_pd(b + 16, _mm512_castpd512_pd256(hi));
        _mm256_storeu_pd(b + 24, _mm512_extractf64x4_pd(hi, 1));
    }
}

/* The uniforms of the next 16 * batches blocks of stream p into
 * u[0..64 * batches - 1], as philox_next would give their words; p's
 * buffer must be empty and its counter's low word must not wrap.  Each
 * batch is two independent runs of 8 blocks, counters ctr + 1 .. ctr + 8
 * and ctr + 9 .. ctr + 16, one block per 64-bit element, and
 * philox_next's rounds on every element; the key XORs are one vpternlogq
 * each. */
AVX512 static void philox_blocks(philox_t *p, double *u, int64_t batches)
{
    const __m512i up = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8);
    for (int64_t b = 0; b < batches; b++, u += 64) {
        __m512i x[2][4];
        __m512i c0 = _mm512_add_epi64(_mm512_set1_epi64(p->ctr[0]), up);
        x[0][0] = c0;
        x[1][0] = _mm512_add_epi64(c0, _mm512_set1_epi64(8));
        for (int h = 0; h < 2; h++)
            for (int k = 1; k < 4; k++)
                x[h][k] = _mm512_set1_epi64(p->ctr[k]);
        uint64_t k0 = p->key[0], k1 = p->key[1];
        for (int round = 0; round < 10; round++) {
            if (round) {
                k0 += 0x9E3779B97F4A7C15ULL;
                k1 += 0xBB67AE8584CAA73BULL;
            }
            const __m512i K0 = _mm512_set1_epi64(k0), K1 = _mm512_set1_epi64(k1);
#pragma GCC unroll 2
            for (int h = 0; h < 2; h++) {
                __m512i lo0, lo1;
                __m512i hi0 = mulhilo8(x[h][0], 0xD2E7470EE14C6C93ULL, &lo0);
                __m512i hi1 = mulhilo8(x[h][2], 0xCA5A826395121157ULL, &lo1);
                x[h][0] = _mm512_ternarylogic_epi64(hi1, x[h][1], K0, 0x96);
                x[h][1] = lo1;
                x[h][2] = _mm512_ternarylogic_epi64(hi0, x[h][3], K1, 0x96);
                x[h][3] = lo0;
            }
        }
        p->ctr[0] += 16;
        store8(u, x[0]);
        store8(u + 32, x[1]);
    }
}
#endif

/* The next n uniforms of stream p into u.  Buffered words come first, one
 * at a time; with AVX-512, whole batches of 16 blocks follow while the
 * counter's low word does not wrap; then the rest, one word at a time. */
static void uniforms(philox_t *p, double *u, int64_t n)
{
    int64_t i = 0;
    for (; i < n && p->pos < 4; i++)
        u[i] = uniform(philox_next(p));
#ifdef PHASESDE_AVX512
    uint64_t room = (UINT64_MAX - p->ctr[0]) / 16;
    int64_t batches = (n - i) / 64;
    if ((uint64_t)batches > room)
        batches = (int64_t)room;
    philox_blocks(p, u + i, batches);
    i += 64 * batches;
#endif
    for (; i < n; i++)
        u[i] = uniform(philox_next(p));
}

/* out[i] = the uniform of word skip + i of the Philox4x64-10 stream keyed
 * key[0..1] from counter ctr[0..3], i < n: the path a lane's fills take. */
void phasesde_uniforms(const uint64_t *key, const uint64_t *ctr, int32_t skip,
                       int64_t n, double *out)
{
    philox_t p = {.ctr = {ctr[0], ctr[1], ctr[2], ctr[3]},
                  .key = {key[0], key[1]}, .pos = 4};
    for (int32_t i = 0; i < skip; i++)
        philox_next(&p);
    uniforms(&p, out, n);
}

/* 1 where the fills draw their uniforms with AVX-512, else 0. */
int phasesde_normals_avx512(void)
{
#ifdef PHASESDE_AVX512
    return 1;
#else
    return 0;
#endif
}

/* Cephes ndtri's coefficients: |y - 0.5| <= 0.5 - exp(-2), then
 * z = sqrt(-2 log y) in [2, 8) and in [8, 64), for y the smaller of u
 * and 1 - u.  The leading 1 of each Q is implicit. */
#define EXPM2 0.13533528323661269189 /* exp(-2) */
static const double P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1,
    -1.23916583867381258016E0,
};
static const double Q0[8] = {
    1.95448858338141759834E0,  4.67627912898881538453E0,
    8.63602421390890590575E1,  -2.25462687854119370527E2,
    2.00260212380060660359E2,  -8.20372256168333339912E1,
    1.59056225126211695515E1,  -1.18331621121330003142E0,
};
static const double P1[9] = {
    4.05544892305962419923E0,  3.15251094599893866154E1,
    5.71628192246421288162E1,  4.40805073893200834700E1,
    1.46849561928858024014E1,  2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
};
static const double Q1[8] = {
    1.57799883256466749731E1,  4.53907635128879210584E1,
    4.13172038254672030440E1,  1.50425385692907503408E1,
    2.50464946208309415979E0,  -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
static const double P2[9] = {
    3.23774891776946035970E0,  6.91522889068984211695E0,
    3.93881025292474443415E0,  1.33303460815807542389E0,
    2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6,
    6.23974539184983293730E-9,
};
static const double Q2[8] = {
    6.02427039364742014255E0,  3.67983563856160859403E0,
    1.37702099489081330271E0,  2.16236993594496635890E-1,
    1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};

static inline v4d sqrt4(v4d x)
{
#ifdef __AVX__
    return _mm256_sqrt_pd(x);
#else
    return (v4d){sqrt(x[0]), sqrt(x[1]), sqrt(x[2]), sqrt(x[3])};
#endif
}

/* a where mask m is set, else b. */
static inline v4d pick(v4i m, double a, double b)
{
    return blend(m, splat(a), splat(b));
}

/* ndtri(y) for y in the central interval. */
static inline v4d central(v4d y)
{
    y = y - 0.5;
    v4d y2 = y * y, p = splat(P0[0]), q = y2 + Q0[0];
#pragma GCC unroll 8
    for (int k = 1; k < 5; k++)
        p = p * y2 + P0[k];
#pragma GCC unroll 8
    for (int k = 1; k < 8; k++)
        q = q * y2 + Q0[k];
    return (y + y * (y2 * p / q)) * 2.50662827463100050242E0; /* sqrt(2 pi) */
}

/* -ndtri(y) for y in the lower tail, from x = sqrt(-2 log y) and lx = log(x). */
static inline v4d tail(v4d x, v4d lx)
{
    v4d x0 = x - lx / x, z = 1.0 / x;
    v4i m = x < 8.0;
    v4d p = pick(m, P1[0], P2[0]), q = z + pick(m, Q1[0], Q2[0]);
#pragma GCC unroll 8
    for (int k = 1; k < 9; k++)
        p = p * z + pick(m, P1[k], P2[k]);
#pragma GCC unroll 8
    for (int k = 1; k < 8; k++)
        q = q * z + pick(m, Q1[k], Q2[k]);
    return x0 - z * p / q;
}

/* Substeps of normals drawn per lane at a time, four normals each. */
enum { FILL = 256, NDTRI_BLOCK = 4 * FILL };

static inline uint64_t bits_of(double x)
{
    uint64_t b;
    __builtin_memcpy(&b, &x, sizeof b);
    return b;
}

static inline double of_bits(uint64_t b)
{
    double x;
    __builtin_memcpy(&x, &b, sizeof x);
    return x;
}

/* Gathers the tail arguments of u[0..n-1]: for each u[i] whose
 * f = u[i] > 1 - exp(-2) ? 1 - u[i] : u[i] is not above exp(-2), appends f
 * to t and i to at.  Returns their count.  No branch depends on a value:
 * f is picked by a mask, and the count rises by the test's 0 or 1; with
 * AVX-512, eight values at a time are packed by vcompresspd and their
 * indices by vpcompressd.  t and at have room for n + 8 entries. */
#ifdef PHASESDE_AVX512
AVX512 static int tail_args(const double *u, double *t, int *at, int n)
{
    const __m512d upper = _mm512_set1_pd(1.0 - EXPM2);
    const __m512d lim = _mm512_set1_pd(EXPM2), one = _mm512_set1_pd(1.0);
    __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    int nt = 0;
    for (int i = 0; i < n; i += 8) {
        __mmask8 in = n - i < 8 ? (__mmask8)((1u << (n - i)) - 1) : 0xff;
        __m512d y = _mm512_maskz_loadu_pd(in, u + i);
        __m512d f = _mm512_mask_sub_pd(
            y, _mm512_cmp_pd_mask(y, upper, _CMP_GT_OQ), one, y);
        __mmask8 tail = _mm512_cmp_pd_mask(f, lim, _CMP_NGT_UQ) & in;
        _mm512_storeu_pd(t + nt, _mm512_maskz_compress_pd(tail, f));
        _mm256_storeu_si256((__m256i *)(at + nt),
                            _mm256_maskz_compress_epi32(tail, idx));
        nt += __builtin_popcount(tail);
        idx = _mm256_add_epi32(idx, _mm256_set1_epi32(8));
    }
    return nt;
}
#else
static int tail_args(const double *u, double *t, int *at, int n)
{
    int nt = 0;
    for (int i = 0; i < n; i++) {
        uint64_t upper = -(uint64_t)(u[i] > 1.0 - EXPM2);
        t[nt] = of_bits((bits_of(1.0 - u[i]) & upper)
                        | (bits_of(u[i]) & ~upper));
        at[nt] = i;
        nt += !(t[nt] > EXPM2);
    }
    return nt;
}
#endif

/* ndtri of u[0..n-1], n <= NDTRI_BLOCK, all in (0, 1): the central
 * formula for all of them, then the tail formula for those outside the
 * central interval, gathered into a packed list.  A tail value is -ndtri
 * of the lower tail; its sign bit is flipped where u is not in the upper
 * one. */
static void ndtri_block(const double *u, double *x, int n)
{
    double t[NDTRI_BLOCK + 8], w[NDTRI_BLOCK];
    int at[NDTRI_BLOCK + 8], i = 0;
    for (; i + 4 <= n; i += 4)
        store4(x + i, central(load4(u + i)));
    if (i < n) {
        double y[4] = {0.5, 0.5, 0.5, 0.5};
        __builtin_memcpy(y, u + i, (n - i) * sizeof *y);
        store4(y, central(load4(y)));
        __builtin_memcpy(x + i, y, (n - i) * sizeof *y);
    }
    int nt = tail_args(u, t, at, n);
    int padded = (nt + 3) & ~3;
    for (i = nt; i < padded; i++)
        t[i] = 0.5;
    for (i = 0; i < padded; i++)
        t[i] = log(t[i]);
    for (i = 0; i < padded; i += 4)
        store4(t + i, sqrt4(-2.0 * load4(t + i)));
    for (i = 0; i < padded; i++)
        w[i] = log(t[i]);
    for (i = 0; i < padded; i += 4)
        store4(t + i, tail(load4(t + i), load4(w + i)));
    for (i = 0; i < nt; i++)
        x[at[i]] = of_bits(bits_of(t[i])
                           ^ (uint64_t)!(u[at[i]] > 1.0 - EXPM2) << 63);
}

/* out[i] = scipy.special.ndtri(u[i]) for i < n and 0 < u[i] < 1; out
 * must not overlap u. */
void phasesde_ndtri(const double *u, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i += NDTRI_BLOCK)
        ndtri_block(u + i, out + i,
                    n - i < NDTRI_BLOCK ? (int)(n - i) : NDTRI_BLOCK);
}

/* The next n <= NDTRI_BLOCK normals of stream p into x. */
static void normals(philox_t *p, double *x, int n)
{
    double u[NDTRI_BLOCK];
    uniforms(p, u, n);
    ndtri_block(u, x, n);
}

/* (F_a, F_b) at the pre-step point; dynamics.*_frequencies. */
static inline void frequencies(const chunk_t *c, double g, c4 A, c4 AP, c4 B,
                               c4 BP, c4 *fa, c4 *fb)
{
    c4 apa = mul4(AP, A), bpb = mul4(BP, B);
    c4 one = bcast(real(1.0)), half = bcast(real(0.5)), gg = bcast(real(g));
    c4 oa = bcast(real(c->omega_a)), ob = bcast(real(c->omega_b));
    c4 c2a = bcast(real(c->c2a)), c2b = bcast(real(c->c2b));
    switch (c->method) {
    case HYBRID:
        *fa = add4(add4(oa, mul4(c2a, sub4(apa, one))), mul4(gg, bpb));
        *fb = add4(add4(ob, mul4(c2b, bpb)), mul4(gg, sub4(apa, half)));
        break;
    case HYBRID_TRUNCATED: {
        v4d nb = bpb.re;
        *fa = add4(add4(oa, mul4(c2a, sub4(apa, one))), real4(g * nb));
        *fb = add4(real4(c->omega_b + c->c2b * nb), mul4(gg, sub4(apa, half)));
        break;
    }
    case POSITIVE_P:
        *fa = add4(add4(oa, mul4(c2a, apa)), mul4(gg, bpb));
        *fb = add4(add4(ob, mul4(c2b, bpb)), mul4(gg, apa));
        break;
    default: {
        v4d na = apa.re, nb = bpb.re;
        *fa = real4(c->omega_a + c->c2a * (na - 1.0) + g * (nb - 0.5));
        *fb = real4(c->omega_b + c->c2b * (nb - 1.0) + g * (na - 0.5));
    }
    }
}

/* Lanes stepped together. */
enum { GROUP = 4 };

/* Segments per tile at most; substeps per tile at least, unless the run
 * ends first. */
enum { TILE = 64 };

/* One tile's records, before they are added to sums.  Column r < w holds
 * batch (first + r) % n_batches, whose lanes are r, r + n_batches, ...;
 * row t holds sample s0 + t as each monomial's real parts in w columns,
 * then its imaginary parts, so four consecutive columns are one vector. */
typedef struct {
    int64_t s0, s1;       /* samples s0..s1-1 */
    int64_t j0, j1;       /* after substeps j0..j1-1 */
    int64_t w;            /* min(n_batches, m) columns */
    double *sums;         /* (TILE, N_MONOMIALS, 2, w), +0.0 at the start */
    int64_t *live_counts; /* (TILE, w) */
} tile_t;

/* The substeps before sample s: none before sample 0, else ends[s-1]. */
static inline int64_t done(const chunk_t *c, int64_t s)
{
    return s ? c->ends[s - 1] : 0;
}

/* Adds the monomials of a group's live slots, in core.MONOMIALS order, to
 * row t of tile T; slot i is column col[i].  The products round as mul
 * does, slot by slot.  Where packed is set and every slot is live, the
 * slots are columns col[0]..col[0]+3 and each part of each monomial is
 * one vector add; otherwise the live slots add their values one at a
 * time, in ascending order.  So each cell starts at +0.0 and takes its
 * live lanes in ascending order, and added to sums, which start at +0.0,
 * it gives the bytes of the numpy loop's reduce, signed zeros included: a
 * sum of finite values from +0.0 is never -0.0, so the zeros numpy adds
 * for a dead lane change nothing.  A live lane is finite, and a validated
 * config keeps each of its components below 2^200 (core.EnsembleConfig),
 * so none of its monomials and no sum of a chunk's monomials overflows: an
 * overflow's nan would take numpy's bits only by chance, as they depend
 * on where the lane falls in numpy's vector loop. */
static inline void record4(const tile_t *T, int64_t t, c4 A, c4 AP, c4 B,
                           c4 BP, int live, const int64_t *col, int packed)
{
    c4 apa = mul4(AP, A);
    const c4 v[N_MONOMIALS] = {A, AP, B, BP, apa, mul4(BP, B), mul4(apa, apa),
                               mul4(B, B), mul4(BP, BP), mul4(apa, B),
                               mul4(apa, BP)};
    const int64_t w = T->w;
    double *row = T->sums + t * 2 * N_MONOMIALS * w;
    int64_t *count = T->live_counts + t * w;
    if (packed && live == (1 << GROUP) - 1) {
        double *p = row + col[0];
        for (int k = 0; k < N_MONOMIALS; k++, p += 2 * w) {
            store4(p, load4(p) + v[k].re);
            store4(p + w, load4(p + w) + v[k].im);
        }
        for (int i = 0; i < GROUP; i++)
            count[col[0] + i]++;
        return;
    }
    for (int i = 0; i < GROUP; i++)
        if (live >> i & 1) {
            double *p = row + col[i];
            for (int k = 0; k < N_MONOMIALS; k++, p += 2 * w) {
                p[0] += v[k].re[i];
                p[w] += v[k].im[i];
            }
            count[col[i]]++;
        }
}

/* The normals of a dead slot. */
static const double NO_NOISE[4];

/* Tile T for the live lanes idx[0..n-1], n <= GROUP, each in a slot of
 * its own: each segment's substeps, then the record of its sample into
 * T, from the group's vectors.  The other slots are dead: they hold
 * zeros, which every update here keeps at zero, read NO_NOISE, draw
 * nothing, and are neither recorded nor written back.  A lane that dies
 * is marked dead (nothing reads it again) and becomes a dead slot for the
 * rest of the tile; the group stops once all its lanes are dead. */
static void advance(const chunk_t *c, lane_t *lanes, const int64_t *idx,
                    int n, const tile_t *T)
{
    c4 A, AP, B, BP, APA0;
    A = AP = B = BP = APA0 = bcast(real(0.0));
    double scale[GROUP] = {1.0, 1.0, 1.0, 1.0};
    int64_t col[GROUP] = {0, 0, 0, 0};
    const double *x[GROUP] = {NO_NOISE, NO_NOISE, NO_NOISE, NO_NOISE};
    double xs[GROUP][NDTRI_BLOCK];
    for (int i = 0; i < n; i++) {
        const lane_t *L = &lanes[idx[i]];
        put(&A, i, L->a);
        put(&AP, i, L->ap);
        put(&B, i, L->b);
        put(&BP, i, L->bp);
        put(&APA0, i, L->apa0);
        scale[i] = L->apa0_scale;
        col[i] = idx[i] % c->n_batches;
    }
    /* Four consecutive lanes in four consecutive columns. */
    int packed = n == GROUP && idx[3] - idx[0] == 3 && col[0] + 3 < T->w;
    int live = (1 << n) - 1;
    const v4d lim = splat(c->threshold);
    const c4 one = bcast(real(1.0));
    const c4 cs = bcast(mul(I_, c->s)); /* Python's 1j*s: 0*x and 1*x are exact */
    for (int64_t j = T->j0, s = T->s0;; j++) {
        /* Each sample whose substeps are done: a segment of no substeps
         * records at once. */
        for (; s < T->s1 && done(c, s) == j; s++)
            record4(T, s - T->s0, A, AP, B, BP, live, col, packed);
        if (s == T->s1)
            break;
        double dt = c->sub_dt[j];
        c4 fa, fb;
        frequencies(c, c->sub_g[j], A, AP, B, BP, &fa, &fb);

        c4 Am = A, APm = AP, Bm = B, BPm = BP;
        if (c->method != WIGNER) {
            if ((j - T->j0) % FILL == 0) {
                int len = 4 * (int)(T->j1 - j < FILL ? T->j1 - j : FILL);
                for (int i = 0; i < GROUP; i++)
                    if (live >> i & 1) {
                        normals(&lanes[idx[i]].rng, xs[i], len);
                        x[i] = xs[i];
                    }
            }
            c4 x0 = real4((v4d){x[0][0], x[1][0], x[2][0], x[3][0]});
            c4 x1 = real4((v4d){x[0][1], x[1][1], x[2][1], x[3][1]});
            c4 x2 = real4((v4d){x[0][2], x[1][2], x[2][2], x[3][2]});
            c4 x3 = real4((v4d){x[0][3], x[1][3], x[2][3], x[3][3]});
            for (int i = 0; i < GROUP; i++)
                x[i] += 4 * (live >> i & 1);
            c4 sdt = real4(splat(sqrt(dt)));
            if (c->method == POSITIVE_P) {
                const cplx *F = c->F + 4 * j;
                c4 F0 = bcast(F[0]), F1 = bcast(F[1]);
                c4 F2 = bcast(F[2]), F3 = bcast(F[3]), i_ = bcast(I_);
                c4 ma = mul4(add4(mul4(F0, x0), mul4(F1, x1)), sdt);
                c4 mb = mul4(add4(mul4(F2, x0), mul4(F3, x1)), sdt);
                c4 map = mul4(mul4(i_, add4(mul4(F0, x2), mul4(F1, x3))), sdt);
                c4 mbp = mul4(mul4(i_, add4(mul4(F2, x2), mul4(F3, x3))), sdt);
                Am = mul4(A, add4(one, ma));
                APm = mul4(AP, add4(one, map));
                Bm = mul4(B, add4(one, mb));
                BPm = mul4(BP, add4(one, mbp));
            } else {
                c4 q = bcast(c->q[j]);
                c4 ix3 = mul4(bcast(I_), x3);
                c4 e3 = add4(x2, ix3), em = sub4(x2, ix3);
                c4 kick = mul4(mul4(q, e3), sdt);
                if (c->method == HYBRID_TRUNCATED) {
                    c4 ee = cexp4(kick, c->cexp_port);
                    Am = mul4(A, ee);
                    APm = divide4(AP, ee);
                } else {
                    Am = mul4(A, add4(one, kick));
                    APm = mul4(AP, sub4(one, kick));
                }
                c4 qem = mul4(q, em);
                Bm = mul4(B, add4(one, mul4(add4(mul4(cs, x0), qem), sdt)));
                BPm = mul4(BP, add4(one, mul4(add4(mul4(bcast(c->s), x1), qem), sdt)));
            }
        }

        c4 dtv = real4(splat(dt)), minus_i = bcast(MINUS_I);
        c4 rot_a = cexp4(mul4(mul4(minus_i, fa), dtv), c->cexp_port);
        c4 rot_b = cexp4(mul4(mul4(minus_i, fb), dtv), c->cexp_port);
        A = mul4(Am, rot_a);
        B = mul4(Bm, rot_b);
        if (c->method == WIGNER) {
            AP = (c4){A.re, -A.im};
            BP = (c4){B.re, -B.im};
        } else {
            AP = divide4(APm, rot_a);
            BP = divide4(BPm, rot_b);
        }

        int suspect = live & ~bits(inside4(A, lim) & inside4(AP, lim)
                                   & inside4(B, lim) & inside4(BP, lim));
        for (int i = 0; suspect; i++, suspect >>= 1) {
            double t = c->threshold;
            if (!(suspect & 1) || !(bad(slot(A, i), t) | bad(slot(AP, i), t)
                                    | bad(slot(B, i), t) | bad(slot(BP, i), t)))
                continue;
            lane_t *L = &lanes[idx[i]];
            c->blow_t[idx[i]] = c->sub_t_end[j];
            L->live = 0;
            put(&A, i, real(0.0));
            put(&AP, i, real(0.0));
            put(&B, i, real(0.0));
            put(&BP, i, real(0.0));
            x[i] = NO_NOISE;
            live &= ~(1 << i);
        }
        if (!live)
            return;
        if (c->record_gauge) {
            c4 d = sub4(mul4(AP, A), APA0);
            for (int i = 0; i < GROUP; i++) {
                if (!(live >> i & 1))
                    continue;
                double drift = absolute(slot(d, i)) / scale[i];
                if (drift > c->gauge_max[idx[i]])
                    c->gauge_max[idx[i]] = drift;
            }
        }
    }
    for (int i = 0; i < GROUP; i++)
        if (live >> i & 1) {
            lane_t *L = &lanes[idx[i]];
            L->a = slot(A, i);
            L->ap = slot(AP, i);
            L->b = slot(B, i);
            L->bp = slot(BP, i);
        }
}

/* (alpha, alpha_plus) of one mode; representations.sample_wigner_coherent
 * for r = 2, complex(gamma) + 0.5 * (n1 + 1j * n2), then the conjugate:
 * (gamma + 0.5 * n1, 0.5 * n2), as its terms like 0.0 * n2 only set the
 * sign of a zero, no normal is -0.0 and gamma = sqrt(N) is not negative.
 * For r = 1 the delta (gamma, conj gamma) of sample_positive_p_coherent.
 * A real gamma is promoted to (gamma, 0.0), as complex() promotes it. */
static void sample(philox_t *rng, int r, double re, cplx *alpha,
                   cplx *alpha_plus)
{
    cplx gamma = real(re), x = gamma;
    if (r == 2) {
        double n[2];
        normals(rng, n, 2);
        x = (cplx){gamma.re + 0.5 * n[0], 0.5 * n[1]};
    }
    *alpha = x;
    *alpha_plus = (cplx){x.re, -x.im};
}

static void init_lane(const chunk_t *c, lane_t *L, uint64_t index)
{
    L->rng = (philox_t){.key = {c->master_seed, index}, .pos = 4};
    sample(&L->rng, c->r_a, c->gamma_a, &L->a, &L->ap);
    sample(&L->rng, c->r_b, c->gamma_b, &L->b, &L->bp);
    L->apa0 = mul(L->ap, L->a);
    double scale = absolute(L->apa0);
    L->apa0_scale = scale > 0 ? scale : 1.0;
    L->live = 1;
}

/* Adds tile T's cells to sums and live_counts, then zeroes them. */
static void flush(const chunk_t *c, const tile_t *T)
{
    const int64_t nb = c->n_batches, w = T->w;
    const int64_t off = (int64_t)(c->first % (uint64_t)nb);
    for (int64_t s = T->s0; s < T->s1; s++) {
        const double *row = T->sums + (s - T->s0) * 2 * N_MONOMIALS * w;
        const int64_t *count = T->live_counts + (s - T->s0) * w;
        for (int64_t r = 0, batch = off; r < w; r++) {
            cplx *cell = c->sums + (s * nb + batch) * N_MONOMIALS;
            for (int k = 0; k < N_MONOMIALS; k++)
                cell[k] = add(cell[k], (cplx){row[2 * k * w + r],
                                              row[(2 * k + 1) * w + r]});
            c->live_counts[s * nb + batch] += count[r];
            if (++batch == nb)
                batch = 0;
        }
    }
    const int64_t rows = T->s1 - T->s0;
    memset(T->sums, 0, sizeof(double) * rows * 2 * N_MONOMIALS * w);
    memset(T->live_counts, 0, sizeof(int64_t) * rows * w);
}

/* The whole chunk: initial sampling, then for each tile its groups' runs
 * and its flush.  Returns 0, or -1 if out of memory. */
int phasesde_chunk(const chunk_t *c)
{
    const int64_t m = c->m > 0 ? c->m : 1;
    const int64_t rows = c->n_samples < TILE ? c->n_samples : TILE;
    tile_t T = {.w = c->n_batches < m ? c->n_batches : m};
    T.sums = calloc(rows * 2 * N_MONOMIALS * T.w, sizeof(double));
    T.live_counts = calloc(rows * T.w, sizeof(int64_t));
    lane_t *lanes = malloc(sizeof(lane_t) * m);
    const int ok = T.sums && T.live_counts && lanes;
    for (int64_t k = 0; ok && k < c->m; k++)
        init_lane(c, &lanes[k], c->first + (uint64_t)k);
    for (T.s0 = 0, T.j1 = 0; ok && T.s0 < c->n_samples; T.s0 = T.s1) {
        T.j0 = T.j1;
        T.s1 = T.s0;
        while (T.s1 < c->n_samples && T.s1 - T.s0 < TILE && T.j1 - T.j0 < TILE)
            T.j1 = done(c, T.s1++);
        int64_t idx[GROUP];
        int n = 0;
        for (int64_t k = 0; k < c->m; k++)
            if (lanes[k].live) {
                idx[n++] = k;
                if (n == GROUP) {
                    advance(c, lanes, idx, n, &T);
                    n = 0;
                }
            }
        if (n)
            advance(c, lanes, idx, n, &T);
        flush(c, &T);
    }
    free(T.sums);
    free(T.live_counts);
    free(lanes);
    return ok ? 0 : -1;
}
