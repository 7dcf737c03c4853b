/* The fleet fast loop's event kernel, compiled at import time.
 *
 * This is a line-for-line transliteration of the pure-Python fast loop
 * in repro/fleet/server.py (`FleetServer._fast_loop_python`) — same
 * events, same (time, seq) heap order, same float operations in the
 * same order, so the canonical flat state it produces is byte-identical
 * to the Python fallback's.  Compile with `-ffp-contract=off` (no FMA
 * contraction) so every double op rounds exactly like CPython's; on
 * x86-64 both use SSE2 doubles.
 *
 * All memory is owned by Python (numpy arrays); this kernel only reads
 * and writes through the pointers in FleetCtx.  When a buffer would
 * overflow, the kernel returns a pause status *before* consuming the
 * event; the ctypes wrapper grows the buffer, updates the context, and
 * calls fleet_run again — the loop resumes exactly where it stopped.
 *
 * The serve-stream error uniforms are drawn here too: Python seeds one
 * PCG64 stream per host and passes each lane's 128-bit state and
 * increment; `deliver` steps host h's lane whenever it consumes h's
 * next uniform, exactly as numpy's PCG64 `next_double` would.
 *
 * Fault storms run the same recovery state machine as the Python loop
 * (outage windows, vm.crash rollback, upload retries over net.partition,
 * degraded quorum-of-1), all behind the one `faults` flag so the
 * fault-free path stays branch-cheap.  Fault decisions are computed here
 * by a SHA-256 port of repro.faults.plan._draw: Python passes the
 * "{seed}|{site}|" prefix bytes and the kernel appends
 * "{key}|{attempt}|{salt}", so it never calls back into Python and any
 * seed (negative, past int64) hashes exactly as in Python.
 *
 * A second entry point, fleet_report, transliterates the order-sensitive
 * folds of the report (`repro.fleet.server._report_folds`) over the flat
 * state the loop leaves behind.
 *
 * The third, fleet_build, builds the host columns the loop reads: the C
 * port of `repro.fleet.columns._sample_shard_columns` — per host the three
 * seed forks (one-block SHA-256), the SeedSequence pool mix and PCG64
 * seeding of six named streams, ziggurat normal/exponential draws (the
 * tables are passed in; tail and wedge draws use libm log1p/exp exactly
 * as repro.fleet.fastrng does) and the alternating-renewal churn trace,
 * written straight into the CSR session arrays.  It pauses with
 * ST_GROW_SESS, before committing a host, when those arrays are full.
 *
 * Every struct field is 8 bytes wide (int64/double/pointer) so the
 * layouts match the ctypes.Structures in cloop.py with no padding.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define ST_DONE 0
#define ST_GROW_HEAP 1
#define ST_GROW_NEED 2
#define ST_GROW_REP 3
#define ST_GROW_RET 4
#define ST_GROW_SESS 5

#define K_REQUEST 0
#define K_DEADLINE 1
#define K_COMPLETE 2
#define K_UPLOAD 3

/* replica flag bits */
#define F_TIMED_OUT 1
#define F_COMPLETED 2           /* delivered or lost */
#define F_COMPUTED 4            /* storms: compute done, upload pending */

/* ---- PCG64 (numpy's: 128-bit LCG, XSL-RR output) ---------------------- */

#define PCG_MULT_HI 2549297995355413924ULL
#define PCG_MULT_LO 4865540595714422341ULL

/* full 64x64 -> 128-bit product on 32-bit halves (portable C99) */
static void mul64(uint64_t a, uint64_t b, uint64_t *hi, uint64_t *lo)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32;
    uint64_t b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *lo = (mid << 32) | (p00 & 0xffffffffu);
    *hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* step one lane (st/inc = {lo, hi}) and return its XSL-RR output:
 * state = state * MULT + inc (mod 2^128) */
static uint64_t pcg_next64(uint64_t *st, const uint64_t *inc)
{
    uint64_t hi, lo;
    mul64(st[0], PCG_MULT_LO, &hi, &lo);
    hi += st[0] * PCG_MULT_HI + st[1] * PCG_MULT_LO;
    lo += inc[0];
    hi += inc[1] + (lo < inc[0]);
    st[0] = lo;
    st[1] = hi;
    uint64_t v = hi ^ lo;
    unsigned rot = (unsigned)(hi >> 58);
    return (v >> rot) | (v << ((64 - rot) & 63));
}

/* the lane's next double: (x >> 11) * 2^-53 */
static double pcg_double(uint64_t *st, const uint64_t *inc)
{
    return (double)(pcg_next64(st, inc) >> 11)
        * (1.0 / 9007199254740992.0);
}

/* `draws` doubles from each of n lanes, lane-major (out[i * draws + k]),
 * advancing the lanes in place — the test hook for pcg_double */
void serve_doubles(uint64_t *state, const uint64_t *inc, int64_t n,
                   int64_t draws, double *out)
{
    for (int64_t i = 0; i < n; i++)
        for (int64_t k = 0; k < draws; k++)
            out[i * draws + k] = pcg_double(state + 2 * i, inc + 2 * i);
}

/* ---- SHA-256 (FIPS 180-4), just enough for fault_draw ---------------- */

typedef struct {
    uint32_t h[8];
    uint8_t buf[64];
    uint64_t len;               /* bytes absorbed */
} Sha256;

static const uint32_t K256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void sha256_block(uint32_t *h, const uint8_t *p)
{
    uint32_t w[64];
    for (int i = 0; i < 16; i++)
        w[i] = (uint32_t)p[4 * i] << 24 | (uint32_t)p[4 * i + 1] << 16
            | (uint32_t)p[4 * i + 2] << 8 | (uint32_t)p[4 * i + 3];
    for (int i = 16; i < 64; i++) {
        uint32_t s0 = ROR(w[i - 15], 7) ^ ROR(w[i - 15], 18)
            ^ (w[i - 15] >> 3);
        uint32_t s1 = ROR(w[i - 2], 17) ^ ROR(w[i - 2], 19)
            ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], k = h[7];
    for (int i = 0; i < 64; i++) {
        uint32_t t1 = k + (ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25))
            + ((e & f) ^ (~e & g)) + K256[i] + w[i];
        uint32_t t2 = (ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22))
            + ((a & b) ^ (a & c) ^ (b & c));
        k = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += k;
}

static const uint32_t SHA256_IV[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

static void sha256_init(Sha256 *s)
{
    memcpy(s->h, SHA256_IV, sizeof SHA256_IV);
    s->len = 0;
}

static void sha256_update(Sha256 *s, const uint8_t *p, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        s->buf[s->len % 64] = p[i];
        s->len++;
        if (s->len % 64 == 0)
            sha256_block(s->h, s->buf);
    }
}

static uint32_t bswap32(uint32_t x)
{
    return x >> 24 | (x >> 8 & 0xff00u) | (x << 8 & 0xff0000u) | x << 24;
}

/* first 8 digest bytes, little-endian (Python's int.from_bytes(.., "little")):
 * the digest is h[0], h[1] big-endian, so the word is their byte swaps */
static uint64_t digest_word(const uint32_t *h)
{
    return (uint64_t)bswap32(h[1]) << 32 | bswap32(h[0]);
}

static uint64_t sha256_word(Sha256 *s)
{
    uint64_t bits = s->len * 8;
    uint8_t pad = 0x80;
    sha256_update(s, &pad, 1);
    pad = 0;
    while (s->len % 64 != 56)
        sha256_update(s, &pad, 1);
    uint8_t lenbe[8];
    for (int i = 0; i < 8; i++)
        lenbe[i] = (uint8_t)(bits >> (56 - 8 * i));
    sha256_update(s, lenbe, 8);
    return digest_word(s->h);
}

/* digest_word of a message of at most 55 bytes: one padded block */
static uint64_t sha256_short(const uint8_t *msg, int64_t len)
{
    uint8_t block[64];
    uint32_t h[8];
    memcpy(block, msg, (size_t)len);
    block[len] = 0x80;
    memset(block + len + 1, 0, (size_t)(55 - len));
    uint64_t bits = (uint64_t)len * 8;
    for (int i = 0; i < 8; i++)
        block[56 + i] = (uint8_t)(bits >> (56 - 8 * i));
    memcpy(h, SHA256_IV, sizeof SHA256_IV);
    sha256_block(h, block);
    return digest_word(h);
}

/* the decimal digits of u (Python's str(u)), returning their count */
static int fmt_u64(uint8_t *out, uint64_t u)
{
    uint8_t tmp[20];
    int n = 0;
    do {
        tmp[n++] = (uint8_t)('0' + u % 10);
        u /= 10;
    } while (u);
    for (int i = 0; i < n; i++)
        out[i] = tmp[n - 1 - i];
    return n;
}

static void put_int(Sha256 *s, int64_t v)
{
    static const uint8_t minus = '-';
    uint8_t digits[20];
    if (v < 0)
        sha256_update(s, &minus, 1);
    uint64_t u = v < 0 ? (uint64_t)0 - (uint64_t)v : (uint64_t)v;
    sha256_update(s, digits, fmt_u64(digits, u));
}

/* repro.faults.plan._draw: uniform [0, 1) from
 * sha256(prefix + "{key}|{attempt}|{salt}"), prefix = "{seed}|{site}|" */
double fault_draw(const uint8_t *prefix, int64_t plen, int64_t key,
                  int64_t attempt, const uint8_t *salt, int64_t slen)
{
    static const uint8_t bar = '|';
    Sha256 s;
    sha256_init(&s);
    sha256_update(&s, prefix, plen);
    put_int(&s, key);
    sha256_update(&s, &bar, 1);
    put_int(&s, attempt);
    sha256_update(&s, &bar, 1);
    sha256_update(&s, salt, slen);
    return (double)sha256_word(&s) / 18446744073709551616.0;
}

/* ---- the event kernel -------------------------------------------------- */

typedef struct {
    /* sizes / params */
    int64_t n, nwu, quorum, max_replicas;
    double horizon, err_rate;
    int64_t n_delays;
    /* read-only host columns */
    const double *fs, *fe;
    const int64_t *soff;
    const double *departure, *an, *base, *stretch, *delays;
    /* per-host serve-stream PCG64 lanes: {lo, hi} words per host */
    uint64_t *serve_state;
    const uint64_t *serve_inc;
    /* work-unit state */
    uint8_t *wu_state;          /* 0 open, 1 validated, 2 bad-locked;
                                   degraded quorum-of-1 validated: 5 from
                                   open, 3 from bad-locked (bit0 = valid) */
    double *wu_validated;
    int32_t *wu_issued, *wu_out, *wu_tmo, *wu_holders;
    uint8_t *wu_nhold;
    int32_t *wu_hosts;          /* stride max_replicas, count=wu_issued */
    /* replicas (growable) */
    int32_t *r_wid, *r_host;
    double *r_dead, *r_disp;
    uint8_t *r_flag;            /* F_* bits */
    int64_t rep_cap;
    /* ok returns in delivery order (growable) */
    int32_t *ret_wid, *ret_host;
    double *ret_cpu;
    int64_t ret_cap;
    /* need ring buffer (growable) + stash scratch of equal capacity */
    int32_t *need;
    int64_t need_head, need_count, need_cap;
    int32_t *stash;
    /* event heap ordered by (t, seq) (growable) */
    double *h_t;
    int64_t *h_seq;
    uint64_t *h_pay;            /* kind<<32 | payload */
    int64_t heap_len, heap_cap;
    /* per-host mutable state */
    double *waste;
    int32_t *poll_fail;
    int64_t *cur;               /* monotone session cursor */
    /* scalars */
    int64_t seq, n_valid, n_rep, ret_count;
    int64_t ok_n, err_n, stale_n, tmo_n, red_n;
    double err_cpu, stale_cpu, red_cpu;
    /* fault storm: everything below is touched only when faults != 0 */
    int64_t faults;
    const double *o_start, *o_end;  /* sorted disjoint outage windows */
    int64_t n_out;
    double p_crash, p_part, interval, backoff;
    int64_t upload_retries, degraded_threshold;
    const uint8_t *crash_prefix;    /* "{seed}|vm.crash|" */
    int64_t crash_plen;
    const uint8_t *part_prefix;     /* "{seed}|net.partition|" */
    int64_t part_plen;
    double *r_cpu, *r_rb;           /* per replica: compute, rolled back */
    int32_t *r_att;                 /* per replica: upload attempts */
    int64_t uploads_retried, uploads_lost, vm_crashes, part_n;
    int64_t degraded_validated, backlog, degraded, deg_n;
    double rolled_back_cpu, lost_upload_cpu, deg_since, deg_s;
    /* the need queue's longest length right after a dispatch */
    int64_t need_peak;
} FleetCtx;

static void heap_push(FleetCtx *c, double t, int64_t seq, uint64_t pay)
{
    int64_t i = c->heap_len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (c->h_t[p] < t || (c->h_t[p] == t && c->h_seq[p] < seq))
            break;
        c->h_t[i] = c->h_t[p];
        c->h_seq[i] = c->h_seq[p];
        c->h_pay[i] = c->h_pay[p];
        i = p;
    }
    c->h_t[i] = t;
    c->h_seq[i] = seq;
    c->h_pay[i] = pay;
}

static void heap_pop(FleetCtx *c, double *t, int64_t *seq, uint64_t *pay)
{
    *t = c->h_t[0];
    *seq = c->h_seq[0];
    *pay = c->h_pay[0];
    int64_t len = --c->heap_len;
    if (len == 0)
        return;
    double lt = c->h_t[len];
    int64_t ls = c->h_seq[len];
    uint64_t lp = c->h_pay[len];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= len)
            break;
        int64_t right = child + 1;
        if (right < len && (c->h_t[right] < c->h_t[child]
                            || (c->h_t[right] == c->h_t[child]
                                && c->h_seq[right] < c->h_seq[child])))
            child = right;
        if (c->h_t[child] < lt
            || (c->h_t[child] == lt && c->h_seq[child] < ls)) {
            c->h_t[i] = c->h_t[child];
            c->h_seq[i] = c->h_seq[child];
            c->h_pay[i] = c->h_pay[child];
            i = child;
        } else {
            break;
        }
    }
    c->h_t[i] = lt;
    c->h_seq[i] = ls;
    c->h_pay[i] = lp;
}

static void need_append(FleetCtx *c, int32_t wid)
{
    int64_t idx = c->need_head + c->need_count;
    if (idx >= c->need_cap)
        idx -= c->need_cap;
    c->need[idx] = wid;
    c->need_count++;
}

static void maybe_reissue(FleetCtx *c, int32_t wid)
{
    if (c->wu_state[wid] & 1)
        return;
    if ((int64_t)c->wu_nhold[wid] + c->wu_out[wid] < c->quorum
        && c->wu_issued[wid] < c->max_replicas)
        need_append(c, wid);
}

static void validate(FleetCtx *c, int32_t wid, uint8_t state, double t)
{
    c->wu_state[wid] = state;
    c->wu_validated[wid] = t;
    c->n_valid++;
}

/* end of the outage window covering `now` (bisect over the starts), or -1 */
static double outage_end(const FleetCtx *c, double now)
{
    int64_t lo = 0, hi = c->n_out;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (now < c->o_start[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo > 0 && now < c->o_end[lo - 1])
        return c->o_end[lo - 1];
    return -1.0;
}

/* finish_time over host sessions [j, hi) from `now`; 0 = trace ran out */
static int csr_finish(const FleetCtx *c, int64_t j, int64_t hi, double now,
                      double needed, double *fin)
{
    double remaining = needed;
    for (; j < hi; j++) {
        double s = c->fs[j];
        double e = c->fe[j];
        double lo = s > now ? s : now;
        if (lo >= e)
            continue;
        double span = e - lo;
        if (span >= remaining) {
            *fin = lo + remaining;
            return 1;
        }
        remaining -= span;
    }
    return 0;
}

/* repro.fleet.recovery.rollback_seconds (floor via truncation: x > 0, and
 * any x >= 2^52 is already integral) */
static double rollback_seconds(double progress, double interval)
{
    if (progress <= 0.0)
        return 0.0;
    if (interval <= 0.0)
        return progress;
    double x = progress / interval;
    double fl = x < 4503599627370496.0 ? (double)(int64_t)x : x;
    return progress - fl * interval;
}

static void dispatch(FleetCtx *c, int64_t h, double now)
{
    if (c->faults) {
        double end = outage_end(c, now);
        if (end >= 0.0) {
            /* scheduler down: re-poll when the window ends */
            double limit = c->departure[h];
            if (c->horizon < limit)
                limit = c->horizon;
            if (end < limit)
                heap_push(c, end, c->seq++,
                          ((uint64_t)K_REQUEST << 32) | (uint64_t)h);
            return;
        }
    }
    int64_t wid = -1;
    int64_t nstash = 0;
    while (c->need_count > 0) {
        int32_t w = c->need[c->need_head];
        c->need_head++;
        if (c->need_head >= c->need_cap)
            c->need_head = 0;
        c->need_count--;
        if ((c->wu_state[w] & 1) || c->wu_issued[w] >= c->max_replicas)
            continue;           /* entry is stale; drop it */
        const int32_t *hl = c->wu_hosts + (int64_t)w * c->max_replicas;
        int32_t cnt = c->wu_issued[w];
        int seen = 0;
        for (int32_t i = 0; i < cnt; i++) {
            if (hl[i] == (int32_t)h) {
                seen = 1;
                break;
            }
        }
        if (seen) {
            c->stash[nstash++] = w;
            continue;
        }
        wid = w;
        break;
    }
    /* prepend the stash in original order (deque.extendleft(reversed)) */
    for (int64_t i = nstash - 1; i >= 0; i--) {
        c->need_head--;
        if (c->need_head < 0)
            c->need_head += c->need_cap;
        c->need[c->need_head] = c->stash[i];
        c->need_count++;
    }
    if (wid < 0) {
        if (c->n_valid >= c->nwu)
            return;             /* everything validated; host retires */
        int32_t f = ++c->poll_fail[h];
        int64_t di = (int64_t)f - 1;
        if (di >= c->n_delays)
            di = c->n_delays - 1;
        double next_poll = now + c->delays[di];
        double limit = c->departure[h];
        if (c->horizon < limit)
            limit = c->horizon;
        if (next_poll < limit)
            heap_push(c, next_poll, c->seq++,
                      ((uint64_t)K_REQUEST << 32) | (uint64_t)h);
        return;
    }
    c->poll_fail[h] = 0;
    if (c->need_count > c->need_peak)
        c->need_peak = c->need_count;
    int64_t rid = c->n_rep;
    int32_t tcount = c->wu_tmo[wid];
    double deadline = now
        + c->base[h] * c->stretch[tcount < 8 ? tcount : 8];
    int64_t hi = c->soff[h + 1];
    int64_t cu = c->cur[h];
    while (cu + 1 < hi && c->fs[cu + 1] <= now)
        cu++;
    c->cur[h] = cu;
    double needed = c->an[h];
    if (c->faults) {
        double rolled = 0.0;
        if (c->p_crash > 0.0
            && fault_draw(c->crash_prefix, c->crash_plen, rid, 0,
                          (const uint8_t *)"", 0) < c->p_crash) {
            /* crash point as a fraction of this replica's compute; only a
             * crash the trace reaches counts */
            double progress = fault_draw(c->crash_prefix, c->crash_plen,
                                         rid, 0, (const uint8_t *)"at", 2)
                * needed;
            double crash_at;
            if (csr_finish(c, cu, hi, now, progress, &crash_at)) {
                rolled = rollback_seconds(progress, c->interval);
                needed += rolled;
                c->vm_crashes++;
            }
        }
        c->r_cpu[rid] = needed;
        c->r_rb[rid] = rolled;
        c->r_att[rid] = 0;
    }
    double fin = 0.0;
    int has_fin = csr_finish(c, cu, hi, now, needed, &fin);
    c->r_wid[rid] = (int32_t)wid;
    c->r_host[rid] = (int32_t)h;
    c->r_dead[rid] = deadline;
    c->r_disp[rid] = now;
    c->r_flag[rid] = 0;
    c->n_rep++;
    c->wu_hosts[wid * c->max_replicas + c->wu_issued[wid]] = (int32_t)h;
    c->wu_issued[wid]++;
    c->wu_out[wid]++;
    if (has_fin && fin <= c->horizon) {
        heap_push(c, fin, c->seq++,
                  ((uint64_t)K_COMPLETE << 32) | (uint64_t)rid);
        if (deadline < fin || (c->faults && deadline <= c->horizon))
            heap_push(c, deadline, c->seq++,
                      ((uint64_t)K_DEADLINE << 32) | (uint64_t)rid);
    } else if (deadline <= c->horizon) {
        heap_push(c, deadline, c->seq++,
                  ((uint64_t)K_DEADLINE << 32) | (uint64_t)rid);
    }
}

/* a finished result reaches the server */
static void deliver(FleetCtx *c, int64_t rid, double t)
{
    int32_t wid = c->r_wid[rid];
    int64_t h = c->r_host[rid];
    uint8_t fl = c->r_flag[rid];
    c->r_flag[rid] = fl | F_COMPLETED;
    /* rolled-back seconds are already their own waste bucket */
    double useful = c->faults ? c->r_cpu[rid] - c->r_rb[rid] : c->an[h];
    if ((fl & F_TIMED_OUT) || t > c->r_dead[rid]) {
        c->stale_n++;
        c->stale_cpu += useful;
        c->waste[h] += useful;
        if (!(fl & F_TIMED_OUT)) {
            c->wu_out[wid]--;
            c->r_flag[rid] = fl | F_TIMED_OUT | F_COMPLETED;
        }
        maybe_reissue(c, wid);
        return;
    }
    c->wu_out[wid]--;
    if (c->wu_state[wid] & 1) {
        c->red_n++;
        c->red_cpu += useful;
        c->waste[h] += useful;
        return;
    }
    if (pcg_double(c->serve_state + 2 * h, c->serve_inc + 2 * h)
        < c->err_rate) {
        c->err_n++;
        c->err_cpu += useful;
        c->waste[h] += useful;
        if (c->quorum == 1 && c->wu_state[wid] == 0)
            c->wu_state[wid] = 2;
        maybe_reissue(c, wid);
        return;
    }
    c->ok_n++;
    c->ret_wid[c->ret_count] = wid;
    c->ret_host[c->ret_count] = (int32_t)h;
    c->ret_cpu[c->ret_count] = useful;
    c->ret_count++;
    uint8_t lone;
    if (c->wu_state[wid] == 0) {
        int64_t nh = c->wu_nhold[wid];
        c->wu_holders[(int64_t)wid * c->quorum + nh] = (int32_t)h;
        nh++;
        c->wu_nhold[wid] = (uint8_t)nh;
        if (nh >= c->quorum) {
            validate(c, wid, 1, t);
            return;
        }
        lone = 5;
    } else {
        lone = 3;               /* bad-locked: the match can never validate */
    }
    if (c->degraded) {
        /* degraded mode: the lone result is accepted as quorum-of-1 */
        validate(c, wid, lone, t);
        c->degraded_validated++;
    } else {
        maybe_reissue(c, wid);
    }
}

/* degraded-mode hysteresis on the buffered-upload backlog */
static void update_degraded(FleetCtx *c, double now)
{
    if (c->degraded_threshold <= 0)
        return;
    if (!c->degraded && c->backlog > c->degraded_threshold) {
        c->degraded = 1;
        c->deg_since = now;
    } else if (c->degraded && c->backlog == 0) {
        c->degraded = 0;
        c->deg_n++;
        c->deg_s += now - c->deg_since;
    }
}

/* retry budget exhausted: the computed result is lost */
static void drop_upload(FleetCtx *c, int64_t rid)
{
    int32_t wid = c->r_wid[rid];
    int64_t h = c->r_host[rid];
    uint8_t fl = c->r_flag[rid];
    c->r_flag[rid] = fl | F_COMPLETED;
    c->uploads_lost++;
    double useful = c->r_cpu[rid] - c->r_rb[rid];
    c->lost_upload_cpu += useful;
    c->waste[h] += useful;
    if (!(fl & F_TIMED_OUT)) {
        c->wu_out[wid]--;
        c->r_flag[rid] = fl | F_TIMED_OUT | F_COMPLETED;
    }
    maybe_reissue(c, wid);
}

/* deliver, or buffer for a retry when an outage or net.partition blocks */
static void attempt_upload(FleetCtx *c, int64_t rid, double now)
{
    double earliest = outage_end(c, now);
    if (earliest < 0.0) {
        if (!(c->p_part > 0.0
              && fault_draw(c->part_prefix, c->part_plen, rid,
                            c->r_att[rid], (const uint8_t *)"", 0)
                 < c->p_part)) {
            deliver(c, rid, now);
            return;
        }
        c->part_n++;
        earliest = now;
    }
    int32_t attempt = c->r_att[rid];
    c->r_att[rid] = attempt + 1;
    if (attempt >= c->upload_retries) {
        drop_upload(c, rid);
        return;
    }
    c->uploads_retried++;
    double delay = c->backoff;  /* backoff * 2^attempt, exactly */
    for (int32_t i = 0; i < attempt; i++)
        delay *= 2.0;
    double retry_at = now + delay;
    if (earliest > retry_at)
        retry_at = earliest;
    c->backlog++;
    update_degraded(c, now);
    if (retry_at <= c->horizon)
        heap_push(c, retry_at, c->seq++,
                  ((uint64_t)K_UPLOAD << 32) | (uint64_t)rid);
}

int fleet_run(FleetCtx *c)
{
    for (;;) {
        if (c->heap_len == 0)
            return ST_DONE;
        if (c->h_t[0] > c->horizon)
            return ST_DONE;
        /* preflight: every path through one event fits these margins */
        if (c->n_rep + 1 > c->rep_cap)
            return ST_GROW_REP;
        if (c->ret_count + 1 > c->ret_cap)
            return ST_GROW_RET;
        if (c->heap_len + 3 > c->heap_cap)
            return ST_GROW_HEAP;
        if (c->need_count + 2 > c->need_cap)
            return ST_GROW_NEED;
        double t;
        int64_t seq;
        uint64_t pay;
        heap_pop(c, &t, &seq, &pay);
        int kind = (int)(pay >> 32);
        int64_t payload = (int64_t)(pay & 0xffffffffu);
        if (kind == K_COMPLETE || kind == K_UPLOAD) {
            int64_t rid = payload;
            int64_t h = c->r_host[rid];
            if (kind == K_UPLOAD) {
                c->backlog--;
                attempt_upload(c, rid, t);
                update_degraded(c, t);
                continue;
            }
            int redispatch = c->n_valid < c->nwu;
            if (redispatch && c->heap_len > 0 && c->h_t[0] == t) {
                /* a tied event must process first: fall back to the
                 * pushed re-poll */
                heap_push(c, t, c->seq++,
                          ((uint64_t)K_REQUEST << 32) | (uint64_t)h);
                redispatch = 0;
            }
            if (c->faults) {
                c->r_flag[rid] |= F_COMPUTED;
                double rolled = c->r_rb[rid];
                if (rolled != 0.0) {
                    c->rolled_back_cpu += rolled;
                    c->waste[h] += rolled;
                }
                attempt_upload(c, rid, t);
            } else {
                deliver(c, rid, t);
            }
            if (redispatch)
                dispatch(c, h, t);
        } else if (kind == K_REQUEST) {
            dispatch(c, payload, t);
        } else {
            int64_t rid = payload;
            if (!(c->r_flag[rid] & (F_TIMED_OUT | F_COMPLETED))) {
                c->r_flag[rid] |= F_TIMED_OUT;
                int32_t wid = c->r_wid[rid];
                c->wu_out[wid]--;
                if (!(c->wu_state[wid] & 1)) {
                    c->wu_tmo[wid]++;
                    c->tmo_n++;
                    maybe_reissue(c, wid);
                }
            }
        }
    }
}

/* ---- the report's ordered folds --------------------------------------- */

typedef struct {
    /* sizes / params */
    int64_t n, nwu, quorum, ncodes, faults;
    double horizon;
    /* validator state */
    const uint8_t *wu_state, *nhold;
    const int32_t *hold_flat;   /* stride quorum */
    /* ok returns in delivery order */
    const int32_t *ret_wid, *ret_host;
    const double *ret_cpu;
    int64_t ret_count;
    int64_t *wid_start;         /* scratch, nwu + 1 zeros */
    int64_t *order;             /* scratch, ret_count */
    /* replicas; r_cpu/r_rb are read only when faults != 0 */
    const int32_t *r_host;
    const double *r_disp, *r_cpu, *r_rb;
    const uint8_t *r_flag;
    int64_t n_rep;
    /* host columns */
    const double *fs, *fe, *departure;
    const int64_t *soff;
    const uint16_t *hv_code;
    /* per-host / per-code outputs: waste enters as the loop's waste,
     * the other three as zeros */
    double *waste, *quorum_by_host, *qc_sum, *w_sum;
    /* scalar folds; redundant, lost and rolled_back enter as the loop's
     * tallies */
    double quorum_cpu, redundant, pending, lost, rolled_back, in_flight;
} ReportCtx;

/* repro.fleet.server._report_folds, fold for fold */
void fleet_report(ReportCtx *r)
{
    /* ok returns wid-major, delivery order kept within a wid: a stable
     * counting sort by wid */
    for (int64_t i = 0; i < r->ret_count; i++)
        r->wid_start[r->ret_wid[i] + 1]++;
    for (int64_t w = 0; w < r->nwu; w++)
        r->wid_start[w + 1] += r->wid_start[w];
    for (int64_t i = 0; i < r->ret_count; i++)
        r->order[r->wid_start[r->ret_wid[i]]++] = i;
    int64_t prev_wid = -1;
    int validated = 0;
    const int32_t *qset = r->hold_flat;
    int64_t qlen = 0;
    for (int64_t k = 0; k < r->ret_count; k++) {
        int64_t i = r->order[k];
        int64_t wid = r->ret_wid[i];
        int64_t h = r->ret_host[i];
        double cpu = r->ret_cpu[i];
        if (wid != prev_wid) {
            prev_wid = wid;
            uint8_t code = r->wu_state[wid];
            validated = code & 1;
            int64_t b = wid * r->quorum;
            int64_t nh = r->nhold[wid];
            if (code == 1) {
                qset = r->hold_flat + b;
                qlen = nh;
            } else if (code == 5) {
                /* degraded quorum-of-1: the last holder is load-bearing */
                qset = r->hold_flat + b + nh - 1;
                qlen = 1;
            } else {
                qlen = 0;       /* bad-locked: no ok return is */
            }
        }
        if (validated) {
            int in_q = 0;
            for (int64_t q = 0; q < qlen; q++) {
                if (qset[q] == (int32_t)h) {
                    in_q = 1;
                    break;
                }
            }
            if (in_q) {
                r->quorum_cpu += cpu;
                r->quorum_by_host[h] += cpu;
            } else {
                r->redundant += cpu;
                r->waste[h] += cpu;
            }
        } else {
            r->pending += cpu;
        }
    }

    /* replicas still incomplete at the horizon, in rid order */
    double horizon = r->horizon;
    for (int64_t rid = 0; rid < r->n_rep; rid++) {
        uint8_t fl = r->r_flag[rid];
        if (fl & F_COMPLETED)
            continue;
        int64_t h = r->r_host[rid];
        double cpu = r->faults ? r->r_cpu[rid] : 0.0;
        double rb = r->faults ? r->r_rb[rid] : 0.0;
        if (fl & F_COMPUTED) {
            /* upload still buffered: its useful seconds are lost */
            double useful = cpu - rb;
            r->lost += useful;
            r->waste[h] += useful;
            continue;
        }
        double start = r->r_disp[rid];
        double spent = 0.0;
        if (horizon > start) {
            int64_t lo_i = r->soff[h], hi_i = r->soff[h + 1];
            int64_t lo = lo_i, hi = hi_i;   /* bisect_right(fs, start) */
            while (lo < hi) {
                int64_t mid = (lo + hi) >> 1;
                if (start < r->fs[mid])
                    hi = mid;
                else
                    lo = mid + 1;
            }
            int64_t j = lo - 1;
            if (j < lo_i)
                j = lo_i;
            for (; j < hi_i; j++) {
                double s = r->fs[j];
                if (s >= horizon)
                    break;
                double e = r->fe[j];
                double a = s > start ? s : start;
                double b = e < horizon ? e : horizon;
                if (b > a)
                    spent += b - a;
            }
        }
        if (rb != 0.0) {
            r->rolled_back += rb;
            r->waste[h] += rb;
            spent -= rb;
        }
        if (r->departure[h] <= horizon) {
            r->lost += spent;
            r->waste[h] += spent;
        } else {
            r->in_flight += spent;
        }
    }

    /* per-hypervisor buckets, host order */
    for (int64_t h = 0; h < r->n; h++) {
        r->qc_sum[r->hv_code[h]] += r->quorum_by_host[h];
        r->w_sum[r->hv_code[h]] += r->waste[h];
    }
}

/* ---- the host column build -------------------------------------------- */

/* SeedSequence's entropy-pool constants (numpy's Doty-Humphrey hashes) */
#define SS_XSHIFT 16
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u

/* a host's named streams, in the order of BuildCtx.spawn */
enum { S_SPEED, S_AVAIL, S_DEPART, S_PHASE, S_ON, S_OFF, N_STREAMS };

typedef struct {
    /* hosts [next, n) remain to build; sessions [0, n_sess) are written */
    int64_t n, next, n_sess, sess_cap;
    int64_t draw_speed;             /* host_gflops_sigma != 0 */
    double horizon, session_mean, departure_mean;
    double avail_mean, avail_spread, avail_floor, avail_ceil;
    /* "{seed}/host-": the host index is appended to fork each host */
    const uint8_t *prefix;
    int64_t plen;
    /* spawn-key words of the named streams, N_STREAMS x 4 */
    const uint32_t *spawn;
    /* ziggurat tables and constants (repro.fleet._zigdata) */
    const uint64_t *ki_nor, *ke_exp;
    const double *wi_nor, *fi_nor, *we_exp, *fe_exp;
    double nor_r, nor_inv_r, exp_r;
    /* per-host outputs; speed_z is written only when draw_speed */
    double *speed_z, *avail, *departure;
    uint64_t *serve_seed;
    int64_t *s_cnt;
    /* flat sessions, host after host (growable) */
    double *s_starts, *s_ends;
} BuildCtx;

typedef struct {
    uint64_t st[2], inc[2];         /* {lo, hi} */
} Pcg;

static uint32_t ss_hashmix(uint32_t value, uint32_t *hc)
{
    value ^= *hc;
    *hc *= SS_MULT_A;
    value *= *hc;
    return value ^ (value >> SS_XSHIFT);
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t res = x * SS_MIX_L - y * SS_MIX_R;
    return res ^ (res >> SS_XSHIFT);
}

/* the entropy half of the pool mix: run entropy (lo, hi, 0, 0) hashed in,
 * then mixed pairwise — shared by every stream seeded from one entropy */
static void ss_pool(uint64_t entropy, uint32_t pool[4])
{
    const uint32_t words[4] = {(uint32_t)entropy, (uint32_t)(entropy >> 32),
                               0, 0};
    uint32_t hc = SS_INIT_A;
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(words[i], &hc);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hc));
}

/* the spawn-key half's hashes: data-independent, so once per stream name */
static void ss_spawn_hashes(const uint32_t *spawn, uint32_t hashed[16])
{
    uint32_t hc = SS_INIT_A;
    for (int i = 0; i < 16; i++)    /* past the entropy half's 16 hashes */
        hc *= SS_MULT_A;
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            hashed[4 * src + dst] = ss_hashmix(spawn[src], &hc);
}

/* RngStreams(entropy).stream(name) as one PCG64 lane: finish the pool mix,
 * generate_state(4, uint64), then numpy's pcg64 seeding
 * state = (inc + seed) * MULT + inc with inc = (w2:w3) << 1 | 1, seed = w0:w1 */
static void pcg_seed(Pcg *p, const uint32_t entropy_pool[4],
                     const uint32_t hashed[16])
{
    uint32_t pool[4];
    memcpy(pool, entropy_pool, sizeof pool);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = ss_mix(pool[dst], hashed[4 * src + dst]);
    uint32_t hc = SS_INIT_B, out[8];
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % 4] ^ hc;
        hc *= SS_MULT_B;
        v *= hc;
        out[i] = v ^ (v >> SS_XSHIFT);
    }
    uint64_t w[4];
    for (int i = 0; i < 4; i++)
        w[i] = (uint64_t)out[2 * i] | (uint64_t)out[2 * i + 1] << 32;
    p->inc[0] = w[3] << 1 | 1;
    p->inc[1] = w[2] << 1 | w[3] >> 63;
    p->st[0] = w[1] + p->inc[0];
    p->st[1] = w[0] + p->inc[1] + (p->st[0] < w[1]);
    pcg_next64(p->st, p->inc);
}

/* numpy's random_standard_normal (repro.fleet.fastrng.ScalarPcg.std_normal
 * and _normal_unlikely), including the tail sign from bit 8 of rabs */
static double zig_normal(const BuildCtx *c, Pcg *p)
{
    for (;;) {
        uint64_t r = pcg_next64(p->st, p->inc);
        int idx = (int)(r & 0xff);
        r >>= 8;
        int sign = (int)(r & 1);
        uint64_t rabs = (r >> 1) & 0xfffffffffffffULL;
        double x = (double)rabs * c->wi_nor[idx];
        if (rabs < c->ki_nor[idx])
            return sign ? -x : x;
        if (idx == 0) {
            double xx, yy;
            do {
                xx = -c->nor_inv_r * log1p(-pcg_double(p->st, p->inc));
                yy = -log1p(-pcg_double(p->st, p->inc));
            } while (!(yy + yy > xx * xx));
            return (rabs >> 8) & 1 ? -(c->nor_r + xx) : c->nor_r + xx;
        }
        if ((c->fi_nor[idx - 1] - c->fi_nor[idx]) * pcg_double(p->st, p->inc)
            + c->fi_nor[idx] < exp(-0.5 * x * x))
            return sign ? -x : x;
        /* wedge rejection: redraw */
    }
}

/* numpy's random_standard_exponential (ScalarPcg.std_exp, _exp_unlikely) */
static double zig_exp(const BuildCtx *c, Pcg *p)
{
    for (;;) {
        uint64_t ri = pcg_next64(p->st, p->inc) >> 3;
        int idx = (int)(ri & 0xff);
        ri >>= 8;
        double x = (double)ri * c->we_exp[idx];
        if (ri < c->ke_exp[idx])
            return x;
        if (idx == 0)
            return c->exp_r - log1p(-pcg_double(p->st, p->inc));
        if ((c->fe_exp[idx - 1] - c->fe_exp[idx]) * pcg_double(p->st, p->inc)
            + c->fe_exp[idx] < exp(-x))
            return x;
    }
}

/* repro.fleet.columns._sample_shard_columns over hosts [next, n), host by
 * host: the seed forks, the speed/avail draws and the alternating-renewal
 * churn trace.  A host whose sessions would overflow pauses the build
 * before it commits; after the grow it is rebuilt from its seeds. */
int fleet_build(BuildCtx *c)
{
    uint32_t hashed[N_STREAMS][16];
    for (int k = 0; k < N_STREAMS; k++)
        ss_spawn_hashes(c->spawn + 4 * k, hashed[k]);
    uint8_t host_msg[64], fork_msg[64];
    memcpy(host_msg, c->prefix, (size_t)c->plen);
    for (; c->next < c->n; c->next++) {
        int64_t i = c->next;
        uint64_t child = sha256_short(
            host_msg, c->plen + fmt_u64(host_msg + c->plen, (uint64_t)i));
        int len = fmt_u64(fork_msg, child);
        memcpy(fork_msg + len, "/trace", 6);
        uint64_t trace = sha256_short(fork_msg, len + 6);
        memcpy(fork_msg + len, "/serve", 6);
        c->serve_seed[i] = sha256_short(fork_msg, len + 6);

        uint32_t pool[4];
        Pcg p, on, off;
        ss_pool(child, pool);
        if (c->draw_speed) {
            pcg_seed(&p, pool, hashed[S_SPEED]);
            c->speed_z[i] = zig_normal(c, &p);
        }
        pcg_seed(&p, pool, hashed[S_AVAIL]);
        double avail = c->avail_mean + c->avail_spread * zig_normal(c, &p);
        avail = c->avail_floor > avail ? c->avail_floor : avail;
        avail = c->avail_ceil < avail ? c->avail_ceil : avail;
        c->avail[i] = avail;

        ss_pool(trace, pool);
        pcg_seed(&p, pool, hashed[S_DEPART]);
        double departure = zig_exp(c, &p) * c->departure_mean;
        c->departure[i] = departure;
        double eow = c->horizon < departure ? c->horizon : departure;
        pcg_seed(&p, pool, hashed[S_PHASE]);
        int up = pcg_double(p.st, p.inc) < avail;
        double off_mean = c->session_mean * (1.0 - avail) / avail;
        pcg_seed(&on, pool, hashed[S_ON]);
        pcg_seed(&off, pool, hashed[S_OFF]);
        double t = up ? 0.0 : zig_exp(c, &off) * off_mean;
        int64_t k = c->n_sess;
        while (t < eow) {
            if (k == c->sess_cap)
                return ST_GROW_SESS;
            double t_next = t + zig_exp(c, &on) * c->session_mean;
            c->s_starts[k] = t;
            c->s_ends[k] = t_next < eow ? t_next : eow;
            k++;
            t = t_next + zig_exp(c, &off) * off_mean;
        }
        c->s_cnt[i] = k - c->n_sess;
        c->n_sess = k;
    }
    return ST_DONE;
}

/* one draw per entropy lane from the stream named by c->spawn[0..3]:
 * normal (normal != 0) or exponential — the test hook that pins
 * fleet_build's seeding and ziggurat samplers over many lanes */
void zig_draws(const BuildCtx *c, const uint64_t *entropy, int64_t n,
               int64_t normal, double *out)
{
    uint32_t hashed[16], pool[4];
    Pcg p;
    ss_spawn_hashes(c->spawn, hashed);
    for (int64_t i = 0; i < n; i++) {
        ss_pool(entropy[i], pool);
        pcg_seed(&p, pool, hashed);
        out[i] = normal ? zig_normal(c, &p) : zig_exp(c, &p);
    }
}
