/*
 * The native arena kernel: the top-hash pass of repro.core.arena's
 * scalar pass (_arena_pass), in C99 over the arena's columns.
 *
 * One loop over the rows in post-order (children sit below their
 * parent), with the scalar kernel's recipe:
 *
 *   - a free-variable map per row, keyed by name id, valued by the
 *     folded position-tree hash;
 *   - Lemma 6.1's small-into-big merge at App and Let rows;
 *   - each map stolen by its last consumer and copied for the earlier
 *     ones (uses[] counts the consumers).
 *
 * The hash of a map is the XOR of one `entry` hash per name, so it does
 * not depend on the map's internal order; the maps' sizes do matter
 * (the App/Let flag compares them) and are exact.
 *
 * Widths: every combiner is a splitmix64 chain per lane (one lane up to
 * 64 bits, two above), and a chain absorbs a value as the XOR of its
 * two 64-bit words.  So the pass carries that folded word for every
 * value; only the `top` chain writes both lanes, into two columns.
 * Below 64 bits every chain's output is masked to the width, as
 * HashCombiners.combine does.
 *
 * The names arrive as one UTF-8 blob with offsets (no separator: a name
 * may hold NUL) and are hashed here, FNV-1a then the `name` chain, as
 * HashCombiners.hash_name does.  Literal and constant hashes arrive
 * folded.
 *
 * Every row is checked before the pass: its opcode is one of the five,
 * each child its opcode has sits below it (an absent child is -1), and
 * aux indexes the names or the literals.
 * A bad row, or a failed allocation, returns an error code and the row;
 * nothing is read out of bounds.
 *
 * Only stdint, stdlib and string: the file builds with any C99 compiler
 * (`cc -O2 -std=c99 -shared -fPIC`).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX0 0xBF58476D1CE4E5B9ULL
#define MIX1 0x94D049BB133111EBULL
#define FNV_OFFSET 0xCBF29CE484222325ULL
#define FNV_PRIME 0x100000001B3ULL

enum { OP_VAR, OP_LIT, OP_LAM, OP_APP, OP_LET };

/* Return codes (repro.core.native reads the same numbers). */
enum {
    ST_OK = 0,
    ST_OPCODE = 1,   /* row's opcode is not one of the five */
    ST_CHILD = 2,    /* a child is not below its row, or not -1 where absent */
    ST_AUX = 3,      /* aux indexes neither the names nor the literals */
    ST_NAMES = 4,    /* the name offsets are not a partition of the blob */
    ST_NOMEM = 5     /* an allocation failed, or the arena is too large */
};

/* Salt rows of the salts argument, two lanes each. */
enum { S_NAME, S_ENTRY, S_JOIN, S_TOP, S_LAM, S_APP, S_LET };

/* Entries of the consts argument, folded. */
enum { C_HERE, C_SVAR, C_NONE, C_TRUE, C_FALSE };

static uint64_t mix(uint64_t h, uint64_t v)
{
    uint64_t x = (h ^ v) + GOLDEN;
    x = (x ^ (x >> 30)) * MIX0;
    x = (x ^ (x >> 27)) * MIX1;
    return x ^ (x >> 31);
}

/* A chain state: one word per lane. */
typedef struct {
    uint64_t a, b;
} State;

typedef struct {
    int two;              /* a second lane (bits > 64) */
    uint64_t mask_lo;     /* lane-one mask (bits <= 64) */
    uint64_t mask_hi;     /* the high word's mask (bits > 64) */
    const uint64_t *salt; /* [salt][lane] */
} Ctx;

static State start(const Ctx *c, int salt)
{
    State s;
    s.a = c->salt[2 * salt];
    s.b = c->salt[2 * salt + 1];
    return s;
}

static State absorb(const Ctx *c, State s, uint64_t v)
{
    s.a = mix(s.a, v);
    if (c->two)
        s.b = mix(s.b, v);
    return s;
}

/* A finished chain's output, folded: lane one masked, or lo ^ hi. */
static uint64_t finish(const Ctx *c, State s)
{
    return c->two ? (s.a & c->mask_hi) ^ s.b : s.a & c->mask_lo;
}

/* -- free-variable maps ----------------------------------------------------
 *
 * A map with cap == 0 holds its one entry (or none) inline, so Var and
 * Lit rows allocate nothing.  Otherwise it is an open-addressed table
 * of cap (a power of two) slots in one block: cap values, then cap
 * keys, EMPTY marking a free slot.  Linear probing, backward-shift
 * deletion, at most three quarters full.
 */

#define EMPTY UINT32_MAX
#define MIN_CAP 8

typedef struct {
    union {
        uint64_t *vals; /* cap > 0: the table block */
        uint64_t val;   /* cap == 0 and len == 1: the inline value */
    } u;
    uint32_t len;
    uint32_t cap;
    uint32_t key; /* cap == 0 and len == 1: the inline key */
} Map;

static uint32_t *keys_of(const Map *m)
{
    return (uint32_t *)(m->u.vals + m->cap);
}

static uint32_t home(uint32_t key, uint32_t mask)
{
    uint32_t h = key * 0x9E3779B1u;
    return (h ^ (h >> 15)) & mask;
}

static void map_free(Map *m)
{
    if (m->cap)
        free(m->u.vals);
    m->cap = 0;
    m->len = 0;
}

/* The slot holding key, or the free slot that ends its probe run. */
static uint32_t probe(const Map *m, uint32_t key)
{
    const uint32_t *keys = keys_of(m);
    uint32_t mask = m->cap - 1;
    uint32_t i = home(key, mask);
    while (keys[i] != EMPTY && keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

/* A table of cap slots holding m's entries; 0 on allocation failure. */
static int rehash(Map *m, uint32_t cap)
{
    uint64_t *block = malloc((size_t)cap * (sizeof(uint64_t) + sizeof(uint32_t)));
    Map out;
    uint32_t *keys;
    if (!block)
        return 0;
    out.u.vals = block;
    out.cap = cap;
    out.len = m->len;
    out.key = 0;
    keys = keys_of(&out);
    memset(keys, 0xFF, (size_t)cap * sizeof(uint32_t));
    if (m->cap == 0) {
        if (m->len) {
            uint32_t i = probe(&out, m->key);
            keys[i] = m->key;
            block[i] = m->u.val;
        }
    } else {
        const uint32_t *old_keys = keys_of(m);
        uint32_t j;
        for (j = 0; j < m->cap; j++) {
            if (old_keys[j] != EMPTY) {
                uint32_t i = probe(&out, old_keys[j]);
                keys[i] = old_keys[j];
                block[i] = m->u.vals[j];
            }
        }
        free(m->u.vals);
    }
    *m = out;
    return 1;
}

/* Room for `extra` more entries; 0 on allocation failure. */
static int reserve(Map *m, uint32_t extra)
{
    uint64_t need = (uint64_t)m->len + extra;
    uint64_t cap;
    if (m->cap == 0 ? need <= 1 : need * 4 <= (uint64_t)m->cap * 3)
        return 1;
    cap = m->cap ? m->cap : MIN_CAP;
    while (need * 4 > cap * 3)
        cap *= 2;
    if (cap > (1u << 31))
        return 0;
    return rehash(m, (uint32_t)cap);
}

/* A copy of src with room for `extra` more entries; 0 on failure. */
static int copy_map(Map *dst, const Map *src, uint32_t extra)
{
    if (src->cap == 0) {
        *dst = *src;
        return reserve(dst, extra);
    }
    dst->cap = src->cap;
    dst->len = src->len;
    dst->key = 0;
    dst->u.vals = malloc((size_t)src->cap * (sizeof(uint64_t) + sizeof(uint32_t)));
    if (!dst->u.vals) {
        dst->cap = 0;
        dst->len = 0;
        return 0;
    }
    memcpy(dst->u.vals, src->u.vals,
           (size_t)src->cap * (sizeof(uint64_t) + sizeof(uint32_t)));
    return reserve(dst, extra);
}

/* Remove key; 1 and its value in *val when it was there. */
static int map_pop(Map *m, uint32_t key, uint64_t *val)
{
    uint32_t *keys, mask, i, j;
    if (m->cap == 0) {
        if (m->len && m->key == key) {
            *val = m->u.val;
            m->len = 0;
            return 1;
        }
        return 0;
    }
    keys = keys_of(m);
    i = probe(m, key);
    if (keys[i] == EMPTY)
        return 0;
    *val = m->u.vals[i];
    mask = m->cap - 1;
    /* Backward shift: pull each later entry of the run into the hole
     * unless its home lies cyclically after the hole. */
    j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (keys[j] == EMPTY)
            break;
        if (((j - home(keys[j], mask)) & mask) >= ((j - i) & mask)) {
            keys[i] = keys[j];
            m->u.vals[i] = m->u.vals[j];
            i = j;
        }
    }
    keys[i] = EMPTY;
    m->len--;
    return 1;
}

/* -- the pass ---------------------------------------------------------------- */

typedef struct {
    Ctx c;
    Map *maps;
    uint32_t *uses;
    const State *entry_pre; /* per name: the entry chain after the name */
    uint64_t none;
} Pass;

static uint64_t entry(const Pass *p, uint32_t nid, uint64_t pos)
{
    return finish(&p->c, absorb(&p->c, p->entry_pre[nid], pos));
}

/* Row idx's map, owned for writing with room for `extra` more entries:
 * stolen on its last use, copied before. */
static int take(Pass *p, int64_t idx, uint32_t extra, Map *out)
{
    int ok;
    if (p->uses[idx] == 1) {
        *out = p->maps[idx];
        p->maps[idx].cap = 0;
        p->maps[idx].len = 0;
        ok = reserve(out, extra);
    } else {
        ok = copy_map(out, &p->maps[idx], extra);
    }
    p->uses[idx]--;
    if (!ok)
        map_free(out);
    return ok;
}

/* One read of row idx's map is done: free it after its last use. */
static void release(Pass *p, int64_t idx)
{
    if (--p->uses[idx] == 0)
        map_free(&p->maps[idx]);
}

/* Merge small into big (room reserved), PTJoin-tagged by `tag`;
 * returns big's map hash updated from bh. */
static uint64_t merge(const Pass *p, Map *big, uint64_t bh, const Map *small,
                      uint64_t tag)
{
    const Ctx *c = &p->c;
    State jp = absorb(c, start(c, S_JOIN), tag);
    uint32_t count = small->cap ? small->cap : small->len;
    uint32_t j;
    for (j = 0; j < count; j++) {
        uint32_t key;
        uint64_t spos, old = 0, fresh;
        int found = 0;
        uint32_t slot = 0;
        if (small->cap) {
            key = keys_of(small)[j];
            if (key == EMPTY)
                continue;
            spos = small->u.vals[j];
        } else {
            key = small->key;
            spos = small->u.val;
        }
        if (big->cap) {
            slot = probe(big, key);
            if (keys_of(big)[slot] != EMPTY) {
                found = 1;
                old = big->u.vals[slot];
            }
        } else if (big->len && big->key == key) {
            found = 1;
            old = big->u.val;
        }
        fresh = finish(c, absorb(c, absorb(c, jp, found ? old : p->none), spos));
        if (found)
            bh ^= entry(p, key, old);
        bh ^= entry(p, key, fresh);
        if (big->cap) {
            keys_of(big)[slot] = key;
            big->u.vals[slot] = fresh;
            if (!found)
                big->len++;
        } else {
            /* reserve() leaves an inline map only while it fits one */
            big->key = key;
            big->u.val = fresh;
            big->len = 1;
        }
    }
    return bh;
}

static int64_t column(const void *col, int wide, int64_t i)
{
    return wide ? ((const int64_t *)col)[i] : (int64_t)((const int32_t *)col)[i];
}

static int check_rows(int64_t n, const uint8_t *op, const void *left,
                      const void *right, const void *aux, int widths,
                      int64_t n_names, int64_t n_lits, int64_t *bad_row)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t lo = column(left, widths & 1, i);
        int64_t hi = column(right, widths & 2, i);
        int64_t x = column(aux, widths & 4, i);
        int opc = op[i];
        *bad_row = i;
        if (opc > OP_LET)
            return ST_OPCODE;
        if (opc >= OP_LAM ? !(lo >= 0 && lo < i) : lo != -1)
            return ST_CHILD;
        if (opc >= OP_APP ? !(hi >= 0 && hi < i) : hi != -1)
            return ST_CHILD;
        if (opc == OP_LIT ? !(x >= 0 && x < n_lits)
                          : opc != OP_APP && !(x >= 0 && x < n_names))
            return ST_AUX;
    }
    *bad_row = -1;
    return ST_OK;
}

static int run(Pass *p, int64_t n, const uint8_t *op, const void *left,
               const void *right, const void *aux, int widths,
               const int64_t *sizes, const uint64_t *lit_s,
               const uint64_t *consts, uint64_t *shs, uint64_t *vmh,
               uint64_t *out_lo, uint64_t *out_hi, int64_t *bad_row)
{
    const Ctx *c = &p->c;
    int64_t i;
    for (i = 0; i < n; i++) {
        int opc = op[i];
        uint64_t tag = (uint64_t)sizes[i];
        uint64_t s, vh;
        Map vm;
        State h;
        *bad_row = i;
        if (opc == OP_VAR) {
            uint32_t nid = (uint32_t)column(aux, widths & 4, i);
            s = consts[C_SVAR];
            vm.cap = 0;
            vm.len = 1;
            vm.key = nid;
            vm.u.val = consts[C_HERE];
            vh = entry(p, nid, consts[C_HERE]);
        } else if (opc == OP_LIT) {
            s = lit_s[column(aux, widths & 4, i)];
            vm.cap = 0;
            vm.len = 0;
            vm.key = 0;
            vm.u.val = 0;
            vh = 0;
        } else if (opc == OP_LAM) {
            int64_t body = column(left, widths & 1, i);
            uint32_t nid = (uint32_t)column(aux, widths & 4, i);
            uint64_t pos;
            int found;
            if (!take(p, body, 0, &vm))
                return ST_NOMEM;
            vh = vmh[body];
            found = map_pop(&vm, nid, &pos);
            if (found)
                vh ^= entry(p, nid, pos);
            h = absorb(c, start(c, S_LAM), tag);
            h = absorb(c, h, found ? pos : p->none);
            s = finish(c, absorb(c, h, shs[body]));
        } else if (opc == OP_APP) {
            int64_t fn = column(left, widths & 1, i);
            int64_t arg = column(right, widths & 2, i);
            int left_bigger = p->maps[fn].len >= p->maps[arg].len;
            int64_t big = left_bigger ? fn : arg;
            int64_t small = left_bigger ? arg : fn;
            if (!take(p, big, p->maps[small].len, &vm))
                return ST_NOMEM;
            vh = vmh[big];
            if (p->maps[small].len)
                vh = merge(p, &vm, vh, &p->maps[small], tag);
            release(p, small);
            h = absorb(c, start(c, S_APP), tag);
            h = absorb(c, h, left_bigger ? consts[C_TRUE] : consts[C_FALSE]);
            h = absorb(c, h, shs[fn]);
            s = finish(c, absorb(c, h, shs[arg]));
        } else { /* OP_LET */
            int64_t bound = column(left, widths & 1, i);
            int64_t body = column(right, widths & 2, i);
            uint32_t nid = (uint32_t)column(aux, widths & 4, i);
            uint64_t pos, body_h;
            int found, left_bigger;
            Map body_m;
            /* The binder scopes over the body only: out of the body's
             * map first, then the merge. */
            if (!take(p, body, 0, &body_m))
                return ST_NOMEM;
            body_h = vmh[body];
            found = map_pop(&body_m, nid, &pos);
            if (found)
                body_h ^= entry(p, nid, pos);
            left_bigger = p->maps[bound].len >= body_m.len;
            if (left_bigger) {
                if (!take(p, bound, body_m.len, &vm)) {
                    map_free(&body_m);
                    return ST_NOMEM;
                }
                vh = vmh[bound];
                if (body_m.len)
                    vh = merge(p, &vm, vh, &body_m, tag);
                map_free(&body_m);
            } else {
                vm = body_m;
                if (!reserve(&vm, p->maps[bound].len)) {
                    map_free(&vm);
                    return ST_NOMEM;
                }
                vh = body_h;
                if (p->maps[bound].len)
                    vh = merge(p, &vm, vh, &p->maps[bound], tag);
                release(p, bound);
            }
            h = absorb(c, start(c, S_LET), tag);
            h = absorb(c, h, found ? pos : p->none);
            h = absorb(c, h, left_bigger ? consts[C_TRUE] : consts[C_FALSE]);
            h = absorb(c, h, shs[bound]);
            s = finish(c, absorb(c, h, shs[body]));
        }
        shs[i] = s;
        vmh[i] = vh;
        p->maps[i] = vm;
        h = absorb(c, absorb(c, start(c, S_TOP), s), vh);
        if (c->two) {
            out_lo[i] = h.b;
            out_hi[i] = h.a & c->mask_hi;
        } else {
            out_lo[i] = h.a & c->mask_lo;
        }
    }
    *bad_row = -1;
    return ST_OK;
}

/*
 * Every row's top hash.
 *
 *   n, op          rows and their opcodes
 *   left, right,   child and aux columns; bit 0, 1, 2 of `widths` set
 *   aux, widths    when that column is int64, clear when int32
 *   sizes          int64 subtree sizes (the structure tags)
 *   n_names, blob, the name table: name k is blob[offsets[k] ..
 *   blob_len,      offsets[k + 1]), UTF-8
 *   offsets
 *   n_lits, lit_s  each literal's folded SLit hash
 *   consts         folded PTHere, SVar, Nothing, True and False hashes
 *   salts          [name, entry, pt_join, top, slam, sapp, slet][lane]
 *   two            1 when bits > 64
 *   mask_lo        the width mask when bits <= 64
 *   mask_hi        the high word's mask when bits > 64
 *   out_lo, out_hi each row's top: its low word, and (two lanes) its
 *                  high word
 *   bad_row        the failing row on an error return, else -1
 *
 * Returns ST_OK, or the ST_* code of the first failure.
 */
int repro_arena_tops(int64_t n, const uint8_t *op, const void *left,
                     const void *right, const void *aux, int widths,
                     const int64_t *sizes, int64_t n_names,
                     const uint8_t *blob, int64_t blob_len,
                     const int64_t *offsets,
                     int64_t n_lits, const uint64_t *lit_s,
                     const uint64_t *consts, const uint64_t *salts, int two,
                     uint64_t mask_lo, uint64_t mask_hi, uint64_t *out_lo,
                     uint64_t *out_hi, int64_t *bad_row)
{
    Pass p;
    State *entry_pre = NULL;
    uint64_t *shs = NULL, *vmh = NULL;
    int64_t i, k;
    int status;

    *bad_row = -1;
    if (n < 0 || n > INT32_MAX || n_names < 0 || n_names >= (int64_t)EMPTY
        || n_lits < 0)
        return ST_NOMEM;
    status = check_rows(n, op, left, right, aux, widths, n_names, n_lits,
                        bad_row);
    if (status != ST_OK)
        return status;
    if (n_names && offsets[0] != 0) {
        *bad_row = 0;
        return ST_NAMES;
    }
    for (k = 0; k < n_names; k++) {
        if (offsets[k + 1] < offsets[k] || offsets[k + 1] > blob_len) {
            *bad_row = k;
            return ST_NAMES;
        }
    }

    memset(&p, 0, sizeof p);
    p.c.two = two != 0;
    p.c.mask_lo = mask_lo;
    p.c.mask_hi = mask_hi;
    p.c.salt = salts;
    p.none = consts[C_NONE];
    entry_pre = malloc((size_t)(n_names ? n_names : 1) * sizeof(State));
    shs = malloc((size_t)(n ? n : 1) * sizeof(uint64_t));
    vmh = malloc((size_t)(n ? n : 1) * sizeof(uint64_t));
    p.maps = calloc((size_t)(n ? n : 1), sizeof(Map));
    p.uses = calloc((size_t)(n ? n : 1), sizeof(uint32_t));
    if (!entry_pre || !shs || !vmh || !p.maps || !p.uses) {
        status = ST_NOMEM;
        goto done;
    }

    /* Names: FNV-1a over the UTF-8 bytes, then the name chain; the
     * entry chain resumes after the name. */
    for (k = 0; k < n_names; k++) {
        uint64_t acc = FNV_OFFSET;
        int64_t b;
        for (b = offsets[k]; b < offsets[k + 1]; b++)
            acc = (acc ^ blob[b]) * FNV_PRIME;
        entry_pre[k] = absorb(&p.c, start(&p.c, S_ENTRY),
                              finish(&p.c, absorb(&p.c, start(&p.c, S_NAME), acc)));
    }
    p.entry_pre = entry_pre;

    /* Consumers of each row's map. */
    for (i = 0; i < n; i++) {
        int opc = op[i];
        if (opc >= OP_LAM)
            p.uses[column(left, widths & 1, i)]++;
        if (opc >= OP_APP)
            p.uses[column(right, widths & 2, i)]++;
    }

    status = run(&p, n, op, left, right, aux, widths, sizes, lit_s, consts,
                 shs, vmh, out_lo, out_hi, bad_row);

done:
    if (p.maps) {
        for (i = 0; i < n; i++)
            map_free(&p.maps[i]);
    }
    free(p.maps);
    free(p.uses);
    free(entry_pre);
    free(shs);
    free(vmh);
    return status;
}
