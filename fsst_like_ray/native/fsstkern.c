/* C kernels for the FSST hot loops (symbol-table training, encode parse,
 * decode expand) and the codec and LIKE-scan kernels below them. All are
 * scalar except varint_decode, which has an SSSE3 body.
 *
 * Semantics are EXACTLY the NumPy implementation in fsstlib.py (greedy
 * longest-symbol match, 2-byte escape, parse restarts every SEGMENT bytes
 * and at row bounds; reference format constants per sketch.cc:95,
 * src/FsstWrapper.cpp:131-136). Tests assert bit-identical output against
 * the NumPy path.
 *
 * Built at import time with the system cc (-O3 -march=native); NumPy
 * remains the fallback when no compiler is present.
 */

#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ESCAPE 255
#define SEGMENT 256

/* tail-safe 8-byte load: positions within 8 bytes of the buffer end read
 * through a zero-padded local copy instead of past the allocation */
static inline uint64_t load8_safe(const uint8_t *data, int64_t p, int64_t total) {
    if (p + 8 <= total) {
        uint64_t v;
        memcpy(&v, data + p, 8);
        return v;
    }
    uint8_t tmp[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    memcpy(tmp, data + p, (size_t)(total - p));
    uint64_t v;
    memcpy(&v, tmp, 8);
    return v;
}

static inline uint64_t load8(const uint8_t *p) {
    uint64_t v;
    memcpy(&v, p, 8); /* little-endian hosts only (x86-64/aarch64-le) */
    return v;
}

/* Lookup structures of one symbol table, shared by the encoder and the
 * trainer:
 *  short_code/short_len: 65536-entry tables on the first two bytes; only
 *    cells with short_len 2 (a length-2 symbol) are read
 *  len1_code: 256-entry table (code of the length-1 symbol, 255 = none)
 *  long_grams/long_lens/long_codes: the symbols of >= 3 bytes grouped by
 *    3-byte-prefix id, longest first within a group; group pid is
 *    [pfx_start[pid], pfx_start[pid + 1]) (the caller maps a prefix to
 *    its id) */
typedef struct {
    const uint8_t *short_code, *short_len, *len1_code, *pfx_start;
    const uint64_t *long_grams;
    const uint8_t *long_lens, *long_codes;
} lookup_t;

static inline uint64_t len_mask(int l)
{
    return l >= 8 ? ~0ULL : (1ULL << (8 * l)) - 1;
}

/* Longest symbol that matches the little-endian gram g8 within cap
 * (1..8) bytes, where pid1 is the id + 1 of g8's 3-byte prefix (0 = no
 * symbol of >= 3 bytes starts with it, or cap < 3): returns its length
 * (0 = none, an escape) and stores its code in *code. */
static inline int longest_match(const lookup_t *t, uint64_t g8, int cap,
                                int pid1, int *code)
{
    if (pid1) {
        const int end = t->pfx_start[pid1];
        for (int i = t->pfx_start[pid1 - 1]; i < end; i++) {
            const int l = t->long_lens[i];
            if (l <= cap && (g8 & len_mask(l)) == t->long_grams[i]) {
                *code = t->long_codes[i];
                return l;
            }
        }
    }
    /* 1-2 byte match via the direct tables */
    const uint16_t g2 = (uint16_t)g8;
    if (cap >= 2 && t->short_len[g2] == 2) {
        *code = t->short_code[g2];
        return 2;
    }
    *code = t->len1_code[(uint8_t)g8];
    return *code != ESCAPE;
}

/* Encode rows[data, offsets] with a prepared table (see lookup_t; lut3 is
 * the 2^24 direct-address table 3-byte prefix -> prefix id + 1, read only
 * when has_long). data needs NO tail padding (gram loads near the end are
 * tail-safe). out must hold 2 * total bytes; out_po has n_rows + 1 slots.
 * used (32 bytes, zeroed by the caller) gets the bit of every byte value
 * written as an escaped literal: the block's used_chars bitmap.
 * Returns total output bytes. */
int64_t fsst_encode(
    const uint8_t *data, const int64_t *offsets, int64_t n_rows,
    const uint8_t *short_code, const uint8_t *short_len,
    const uint8_t *len1_code,
    int64_t has_long, const uint8_t *lut3, const uint8_t *pfx_start,
    const uint64_t *long_grams, const uint8_t *long_lens,
    const uint8_t *long_codes,
    uint8_t *out, int64_t *out_po, uint8_t *used)
{
    const lookup_t t = {short_code, short_len, len1_code, pfx_start,
                        long_grams, long_lens, long_codes};
    int64_t o = 0;
    const int64_t total = offsets[n_rows];
    out_po[0] = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t p = offsets[r];
        const int64_t row_end = offsets[r + 1];
        int64_t seg_end = p + SEGMENT < row_end ? p + SEGMENT : row_end;
        while (p < row_end) {
            if (p >= seg_end)
                seg_end = p + SEGMENT < row_end ? p + SEGMENT : row_end;
            const int64_t rem64 = seg_end - p;
            const int cap = rem64 < 8 ? (int)rem64 : 8;
            const uint64_t g8 = load8_safe(data, p, total);
            const int pid1 =
                has_long && cap >= 3 ? lut3[(uint32_t)(g8 & 0xFFFFFF)] : 0;
            int code;
            const int len = longest_match(&t, g8, cap, pid1, &code);
            if (len > 0) {
                out[o++] = (uint8_t)code;
                p += len;
            } else {
                const uint8_t lit = data[p];
                out[o++] = ESCAPE;
                out[o++] = lit;
                used[lit >> 3] |= (uint8_t)(1u << (lit & 7));
                p += 1;
            }
        }
        out_po[r + 1] = o;
    }
    return o;
}

/* ---- symbol-table training (fsstlib.train) -----------------------------
 * Each generation parses the rows with the current table and counts
 * (gram, len) candidates: every emitted symbol (an escape counts as a
 * 1-byte symbol) and every concatenation of two adjacent emitted symbols
 * of <= 8 bytes. Adjacency is positional (pos + len == next pos), so a
 * pair may span a row or segment boundary. The next table is the
 * max_symbols candidates of highest gain = count * len, ties broken by
 * (len, gram), in that order. Bit-identical to the NumPy generations in
 * fsstlib.train (asserted in tests/test_native.py).
 *
 * The parse counts by emitted id (code, or 256 + byte for an escape) in
 * dense arrays, as the FSST paper's counters do; only the distinct ids and
 * id pairs are then merged by (gram, len), since different pairs (or a
 * pair and a symbol) can spell the same candidate. */

#define MAX_SYMBOLS 255
#define MAX_SYMBOL_LEN 8
#define N_IDS 512
#define PREFIX_SLOTS 1024 /* > 2 * MAX_SYMBOLS prefixes: short probes */

/* (gram, len) -> count: the distinct candidates are appended to cands[]
 * in first-seen order, and slots[] (open addressing) holds an index + 1
 * into it, 0 = empty. The ranking then reads cands[] in order. */
typedef struct {
    uint64_t gram;
    uint32_t cnt;
    uint8_t len;
} cand_t;

typedef struct {
    int32_t *slots;
    cand_t *cands;
    int64_t cap, n;
} counter_t;

/* Empty c with room for n entries at load <= 1/2, reallocating only when
 * it has less. Returns -1 out of memory (c is then empty, capacity 0). */
static int counter_reset(counter_t *c, int64_t n)
{
    int64_t cap = 1024;
    while (cap < 2 * n)
        cap <<= 1;
    c->n = 0;
    if (cap > c->cap) {
        free(c->slots);
        free(c->cands);
        c->slots = malloc((size_t)cap * sizeof *c->slots);
        c->cands = malloc((size_t)cap / 2 * sizeof *c->cands);
        c->cap = c->slots && c->cands ? cap : 0;
        if (!c->cap)
            return -1;
    }
    memset(c->slots, 0, (size_t)c->cap * sizeof *c->slots);
    return 0;
}

static inline void counter_add(counter_t *c, uint64_t gram, int len,
                               uint32_t cnt)
{
    const int64_t mask = c->cap - 1;
    uint64_t h = (gram ^ ((uint64_t)len * 0xD6E8FEB86659FD93ULL)) *
                 0x9E3779B97F4A7C15ULL;
    for (int64_t s = (int64_t)((h ^ (h >> 29)) & (uint64_t)mask);;
         s = (s + 1) & mask) {
        const int32_t i = c->slots[s];
        if (!i) {
            const cand_t fresh = {gram, cnt, (uint8_t)len};
            c->cands[c->n] = fresh;
            c->slots[s] = (int32_t)++c->n;
            return;
        }
        cand_t *e = &c->cands[i - 1];
        if (e->gram == gram && e->len == len) {
            e->cnt += cnt;
            return;
        }
    }
}

typedef struct {
    int64_t gain;
    uint64_t gram;
    int len;
} ranked_t;

/* Per-thread training scratch, allocated on a thread's first call and
 * freed when the thread exits: short_len, count1 and count2 are all zero
 * again when a call returns (cleared cell by cell after use), so no call
 * pays for clearing or page-faulting megabytes.
 *  short_*, len1_code, pfx_start, long_*: storage behind a lookup_t
 *  prefix_slots: the trainer's prefix -> id map, an open-addressing set
 *    of (prefix << 8 | id + 1), 0 = empty. It stays in L1, where the
 *    encoder's 2^24 direct-address table would spread a small sample's
 *    lookups over 16 MB.
 *  count1[id], count2[id1 * N_IDS + id2]: one generation's counts;
 *    pairs[] lists the count2 cells in use */
typedef struct {
    uint8_t short_code[1 << 16], short_len[1 << 16], len1_code[256];
    uint8_t pfx_start[MAX_SYMBOLS + 1];
    uint64_t long_grams[MAX_SYMBOLS];
    uint8_t long_lens[MAX_SYMBOLS], long_codes[MAX_SYMBOLS];
    uint32_t prefix_slots[PREFIX_SLOTS];
    int n_prefixes;
    uint32_t count1[N_IDS];
    uint32_t count2[N_IDS * N_IDS];
    int32_t pairs[N_IDS * N_IDS + 1]; /* + 1: count_ids writes one ahead */
    int64_t n_pairs;
    counter_t merged;
    ranked_t heap[MAX_SYMBOLS];
} train_t;

static inline uint32_t prefix_slot(uint32_t p3)
{
    return (p3 * 0x9E3779B1u) >> 22; /* 10 bits: PREFIX_SLOTS */
}

/* id + 1 of the 3-byte prefix p3, 0 = none */
static inline int prefix_id(const train_t *T, uint32_t p3)
{
    for (uint32_t s = prefix_slot(p3);; s = (s + 1) & (PREFIX_SLOTS - 1)) {
        const uint32_t e = T->prefix_slots[s];
        if (!e || e >> 8 == p3)
            return (int)(e & 0xFF);
    }
}

/* Build the lookup structures of symbols (grams[c], lens[c]), c < n:
 * len-1 and len-2 symbols go to the direct tables, longer ones are grouped
 * under their 3-byte prefix, longest first. short_len must be all zero on
 * entry (see clear_short). */
static lookup_t build_lookup(train_t *T, const uint64_t *grams,
                             const uint8_t *lens, int n)
{
    memset(T->len1_code, ESCAPE, sizeof T->len1_code);
    memset(T->prefix_slots, 0, sizeof T->prefix_slots);
    for (int c = 0; c < n; c++) {
        if (lens[c] == 1)
            T->len1_code[grams[c] & 0xFF] = (uint8_t)c;
        if (lens[c] == 2) {
            T->short_code[grams[c] & 0xFFFF] = (uint8_t)c;
            T->short_len[grams[c] & 0xFFFF] = 2;
        }
    }
    /* prefix ids in first-seen order, then a counting sort by id, with
     * codes visited longest first so each group comes out longest first */
    int pid_of[MAX_SYMBOLS], n_long = 0;
    T->n_prefixes = 0;
    memset(T->pfx_start, 0, sizeof T->pfx_start);
    for (int c = 0; c < n; c++) {
        if (lens[c] < 3)
            continue;
        const uint32_t p3 = (uint32_t)(grams[c] & 0xFFFFFF);
        int pid1 = prefix_id(T, p3);
        if (!pid1) {
            uint32_t s = prefix_slot(p3);
            while (T->prefix_slots[s])
                s = (s + 1) & (PREFIX_SLOTS - 1);
            pid1 = ++T->n_prefixes;
            T->prefix_slots[s] = p3 << 8 | (uint32_t)pid1;
        }
        pid_of[c] = pid1 - 1;
        T->pfx_start[pid1]++;
        n_long++;
    }
    for (int pid = 0; pid < T->n_prefixes; pid++)
        T->pfx_start[pid + 1] += T->pfx_start[pid];
    uint8_t fill[MAX_SYMBOLS + 1];
    memcpy(fill, T->pfx_start, sizeof fill);
    for (int l = MAX_SYMBOL_LEN; l >= 3 && n_long; l--)
        for (int c = 0; c < n; c++) {
            if (lens[c] != l)
                continue;
            const int i = fill[pid_of[c]]++;
            T->long_grams[i] = grams[c];
            T->long_lens[i] = (uint8_t)l;
            T->long_codes[i] = (uint8_t)c;
        }
    const lookup_t t = {T->short_code, T->short_len, T->len1_code,
                        T->pfx_start, T->long_grams, T->long_lens,
                        T->long_codes};
    return t;
}

/* Reset the short_len cells build_lookup set for the same symbols, so
 * no generation pays a 64 KB clear */
static void clear_short(train_t *T, const uint64_t *grams,
                        const uint8_t *lens, int n)
{
    for (int c = 0; c < n; c++)
        if (lens[c] == 2)
            T->short_len[grams[c] & 0xFFFF] = 0;
}

/* One generation's parse, counting emitted ids and adjacent id pairs */
static void count_ids(const uint8_t *data, const int64_t *offsets,
                      int64_t n_rows, train_t *T, const lookup_t *t)
{
    const int64_t total = offsets[n_rows];
    const int has_long = T->n_prefixes > 0;
    int64_t prev_end = -1;
    int prev_id = 0, prev_len = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t p = offsets[r];
        const int64_t row_end = offsets[r + 1];
        int64_t seg_end = p + SEGMENT < row_end ? p + SEGMENT : row_end;
        while (p < row_end) {
            if (p >= seg_end)
                seg_end = p + SEGMENT < row_end ? p + SEGMENT : row_end;
            const int64_t rem64 = seg_end - p;
            const int cap = rem64 < 8 ? (int)rem64 : 8;
            const uint64_t g8 = load8_safe(data, p, total);
            const int pid1 = has_long && cap >= 3
                                 ? prefix_id(T, (uint32_t)(g8 & 0xFFFFFF))
                                 : 0;
            int id;
            int len = longest_match(t, g8, cap, pid1, &id);
            /* an escape counts as a 1-byte symbol; the counting below is
             * branch-free, as whether a pair fits is data-dependent */
            const int esc = len == 0;
            id = esc ? 256 + data[p] : id;
            len += esc;
            T->count1[id]++;
            const uint32_t pair =
                (prev_end == p) & (prev_len + len <= MAX_SYMBOL_LEN);
            const int32_t cell = prev_id * N_IDS + id;
            const uint32_t seen = T->count2[cell];
            T->count2[cell] = seen + pair;
            T->pairs[T->n_pairs] = cell;
            T->n_pairs += pair & (seen == 0);
            prev_end = p + len;
            prev_id = id;
            prev_len = len;
            p += len;
        }
    }
}

/* Merge the id counts by (gram, len) into T->merged, clearing them. Id
 * i < n is symbol i of (grams, lens); id 256 + b is the escaped byte b.
 * Returns -1 out of memory. */
static int merge_ids(train_t *T, const uint64_t *grams, const uint8_t *lens,
                     int n)
{
    counter_t *c = &T->merged;
    const int rc = counter_reset(c, T->n_pairs + N_IDS);
    uint64_t g[N_IDS];
    int l[N_IDS];
    for (int id = 0; id < N_IDS; id++) {
        g[id] = id < n ? grams[id] : (uint64_t)(id - 256);
        l[id] = id < n ? lens[id] : 1;
    }
    for (int id = 0; id < N_IDS; id++) {
        if (T->count1[id] && !rc)
            counter_add(c, g[id], l[id], T->count1[id]);
        T->count1[id] = 0;
    }
    for (int64_t i = 0; i < T->n_pairs; i++) {
        const int32_t cell = T->pairs[i];
        const int a = cell / N_IDS, b = cell % N_IDS;
        if (!rc)
            counter_add(c, g[a] | (g[b] << (8 * l[a])), l[a] + l[b],
                        T->count2[cell]);
        T->count2[cell] = 0;
    }
    T->n_pairs = 0;
    return rc;
}

/* rank order: higher gain first, then shorter, then smaller gram */
static inline int ranks_before(const ranked_t *a, const ranked_t *b)
{
    if (a->gain != b->gain)
        return a->gain > b->gain;
    if (a->len != b->len)
        return a->len < b->len;
    return a->gram < b->gram;
}

/* heap[0] is the last-ranked of the kept candidates */
static void heap_sift_down(ranked_t *heap, int n, int i)
{
    for (;;) {
        int w = i;
        const int a = 2 * i + 1, b = a + 1;
        if (a < n && ranks_before(&heap[w], &heap[a]))
            w = a;
        if (b < n && ranks_before(&heap[w], &heap[b]))
            w = b;
        if (w == i)
            return;
        const ranked_t tmp = heap[i];
        heap[i] = heap[w];
        heap[w] = tmp;
        i = w;
    }
}

/* The top k (<= MAX_SYMBOLS) merged candidates in rank order into
 * grams/lens; returns how many. */
static int top_candidates(train_t *T, int k, uint64_t *grams, uint8_t *lens)
{
    const counter_t *c = &T->merged;
    ranked_t *heap = T->heap;
    int n = 0;
    for (int64_t i = 0; i < c->n; i++) {
        const cand_t *e = &c->cands[i];
        const ranked_t x = {(int64_t)e->cnt * e->len, e->gram, e->len};
        if (n < k) {
            int j = n++; /* sift up */
            while (j > 0 && ranks_before(&heap[(j - 1) / 2], &x)) {
                heap[j] = heap[(j - 1) / 2];
                j = (j - 1) / 2;
            }
            heap[j] = x;
        } else if (ranks_before(&x, &heap[0])) {
            heap[0] = x;
            heap_sift_down(heap, n, 0);
        }
    }
    for (int i = n - 1; i > 0; i--) { /* heap sort: last-ranked to the end */
        const ranked_t last = heap[0];
        heap[0] = heap[i];
        heap[i] = last;
        heap_sift_down(heap, i, 0);
    }
    for (int i = 0; i < n; i++) {
        grams[i] = heap[i].gram;
        lens[i] = (uint8_t)heap[i].len;
    }
    return n;
}

static pthread_key_t train_key;
static pthread_once_t train_key_once = PTHREAD_ONCE_INIT;

static void train_free(void *p)
{
    train_t *T = p;
    free(T->merged.slots);
    free(T->merged.cands);
    free(T);
}

static void train_key_init(void)
{
    pthread_key_create(&train_key, train_free);
}

/* Train a symbol table on rows[data, offsets] over `generations`
 * generations. Writes the symbols in code order as little-endian grams
 * (zero past the symbol's length) and lengths into max_symbols slots
 * each. Returns the symbol count, -1 out of memory, or -2 when
 * max_symbols is not in 1..MAX_SYMBOLS. */
int64_t fsst_train(const uint8_t *data, const int64_t *offsets,
                   int64_t n_rows, int generations, int max_symbols,
                   uint64_t *out_grams, uint8_t *out_lens)
{
    if (max_symbols < 1 || max_symbols > MAX_SYMBOLS)
        return -2;
    if (n_rows <= 0)
        return 0;
    pthread_once(&train_key_once, train_key_init);
    train_t *T = pthread_getspecific(train_key);
    if (!T) {
        T = calloc(1, sizeof *T);
        if (!T || pthread_setspecific(train_key, T)) {
            free(T);
            return -1;
        }
    }
    int n_sym = 0;
    for (int gen = 0; gen < generations; gen++) {
        const lookup_t t = build_lookup(T, out_grams, out_lens, n_sym);
        count_ids(data, offsets, n_rows, T, &t);
        clear_short(T, out_grams, out_lens, n_sym);
        if (merge_ids(T, out_grams, out_lens, n_sym))
            return -1;
        n_sym = top_candidates(T, max_symbols, out_grams, out_lens);
    }
    return n_sym;
}

/* Decode payloads back to bytes.
 *  sym_bytes: 256 x 8 symbol byte matrix; sym_len: 256 lengths
 * out_cap is the allocated size of out, which must include >= 8 writable
 * bytes past the true decoded size (symbol copies write 8 bytes).
 * Returns total decoded bytes (also writes per-row out offsets), or -1 if
 * the output would exceed out_cap: a corrupt/adversarial payload read back
 * from storage can expand up to 8x compressed size, so the caller's
 * exact-size buffer (from trusted row counts) must be a hard bound, not a
 * hint (the reference allocates the 8*n+32 worst case for the same reason,
 * src/FsstWrapper.hpp:56). */
int64_t fsst_decode(
    const uint8_t *in, const int64_t *po, int64_t n_rows,
    const uint8_t *sym_bytes, const uint8_t *sym_len,
    uint8_t *out, int64_t out_cap, int64_t *out_ro)
{
    int64_t o = 0;
    const int64_t lim = out_cap - 8; /* any single write is <= 8 bytes */
    out_ro[0] = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t p = po[r];
        const int64_t end = po[r + 1];
        while (p < end) {
            if (o > lim)
                return -1;
            const uint8_t b = in[p];
            if (b == ESCAPE) {
                out[o++] = (p + 1 < end) ? in[p + 1] : 0;
                p += 2;
            } else {
                memcpy(out + o, sym_bytes + ((int64_t)b << 3), 8);
                o += sym_len[b];
                p += 1;
            }
        }
        out_ro[r + 1] = o;
    }
    return o;
}

/* Row-padded bit packing at arbitrary width 1..32, little-endian bit order
 * (bit-identical to the NumPy unpackbits/packbits path in codecs/bitutil.py:
 * value bits LSB-first, every row flushed to a byte boundary). */
void pack_rows(
    const uint32_t *vals, const int64_t *offsets, int64_t n_rows, int width,
    uint8_t *out, const int64_t *out_po)
{
    for (int64_t r = 0; r < n_rows; r++) {
        uint64_t acc = 0;
        int nbits = 0;
        int64_t o = out_po[r];
        for (int64_t j = offsets[r]; j < offsets[r + 1]; j++) {
            acc |= (uint64_t)vals[j] << nbits;
            nbits += width;
            while (nbits >= 8) {
                out[o++] = (uint8_t)acc;
                acc >>= 8;
                nbits -= 8;
            }
        }
        if (nbits > 0)
            out[o++] = (uint8_t)acc;
    }
}

void unpack_rows(
    const uint8_t *in, const int64_t *po, const int64_t *offsets,
    int64_t n_rows, int width, uint32_t *vals)
{
    const uint64_t mask = width < 64 ? ((1ULL << width) - 1) : ~0ULL;
    for (int64_t r = 0; r < n_rows; r++) {
        uint64_t acc = 0;
        int nbits = 0;
        int64_t p = po[r];
        for (int64_t j = offsets[r]; j < offsets[r + 1]; j++) {
            while (nbits < width) {
                acc |= (uint64_t)in[p++] << nbits;
                nbits += 8;
            }
            vals[j] = (uint32_t)(acc & mask);
            acc >>= width;
            nbits -= width;
        }
    }
}

/* Compressed-domain LIKE prefilter (the reference's dormant SIMD skipping
 * intent, src/algos/Skipping.hpp:114-254, realized as a scalar LUT scan):
 * comb[b] is the bitmask of requirements a payload CODE byte b satisfies;
 * esc_comb[b] the mask an ESCAPED LITERAL byte b satisfies (credited to
 * the position of the preceding 255, matching the NumPy path's
 * whole-payload pair scan); a row is a candidate when its accumulated
 * mask reaches `need`. Early-exits per row once satisfied. Bit-identical
 * to the NumPy requirement AND in matchers/engines.py. */
void like_prefilter(
    const uint8_t *pay, const int64_t *po, int64_t n_rows,
    const uint8_t *comb, const uint8_t *esc_comb, int need, uint8_t *out)
{
    /* word-parallel fast path (the reference's 8-byte-word intent,
     * src/FsstWrapper.hpp:89-110 / Memory.hpp:31-71): chunks with no
     * ESCAPE byte — detected by one SWAR has-0xFF test — take the tight
     * branch-free 8-lookup OR; any chunk containing an escape marker
     * falls to the scalar step for exactly that byte, then re-enters the
     * word loop. Every byte still feeds comb[] exactly once and every
     * 255 credits esc_comb[] of its successor, so the accumulated mask
     * (and therefore out[]) is bit-identical to the scalar loop. */
    const uint64_t LO8 = 0x0101010101010101ULL;
    const uint64_t HI8 = 0x8080808080808080ULL;
    const int64_t total = po[n_rows];
    for (int64_t r = 0; r < n_rows; r++) {
        unsigned acc = 0;
        const int64_t end = po[r + 1];
        int64_t p = po[r];
        while (p < end) {
            while (p + 8 <= end) {
                const uint64_t w = load8(pay + p);
                const uint64_t y = ~w;
                if ((y - LO8) & ~y & HI8)
                    break; /* chunk holds a 0xFF: scalar handles it */
                acc |= comb[(uint8_t)w] | comb[(uint8_t)(w >> 8)] |
                       comb[(uint8_t)(w >> 16)] | comb[(uint8_t)(w >> 24)] |
                       comb[(uint8_t)(w >> 32)] | comb[(uint8_t)(w >> 40)] |
                       comb[(uint8_t)(w >> 48)] | comb[(uint8_t)(w >> 56)];
                p += 8;
                if ((int)acc == need) {
                    p = end;
                    break;
                }
            }
            if (p >= end)
                break;
            const uint8_t b = pay[p];
            acc |= comb[b];
            if (b == ESCAPE && p + 1 < total)
                acc |= esc_comb[pay[p + 1]];
            if ((int)acc == need)
                break;
            p++;
        }
        out[r] = ((int)acc == need);
    }
}

/* Lockstep-KMP contains-match walked scalar per row (the vectorized NumPy
 * walk in matchers/engines.py:kmp_code_match pays fancy-indexing per byte;
 * this is its bit-identical C twin). code_delta/char_delta are the
 * (m+1, 256) int32 automata; escape pairs step char_delta on the literal
 * byte. Early-exits a row at accept. */
void kmp_scan(
    const uint8_t *pay, const int64_t *po, int64_t n_rows,
    const int32_t *code_delta, const int32_t *char_delta, int32_t m,
    uint8_t *out)
{
    /* state-0 skip LUT (word-parallel intent of Skipping.hpp:114-254):
     * z[b] = 1 when byte b keeps the automaton in state 0 and is not the
     * escape marker. While in state 0, 8 such bytes advance the scan in
     * one branch — eight INDEPENDENT table loads instead of the serially
     * dependent automaton chain. State, pend and accept are untouched by
     * skipped bytes, so the walk is bit-identical. */
    uint8_t z[256];
    for (int i = 0; i < 256; i++)
        z[i] = (uint8_t)((code_delta[i] == 0) && (i != ESCAPE));
    for (int64_t r = 0; r < n_rows; r++) {
        int32_t s = 0;
        int pend = 0;
        const int64_t end = po[r + 1];
        int64_t p = po[r];
        while (p < end) {
            if (m > 0 && s == 0 && !pend) {
                while (p + 8 <= end) {
                    const uint8_t *q = pay + p;
                    if (z[q[0]] & z[q[1]] & z[q[2]] & z[q[3]] & z[q[4]] &
                        z[q[5]] & z[q[6]] & z[q[7]])
                        p += 8;
                    else
                        break;
                }
                if (p >= end)
                    break;
            }
            const uint8_t b = pay[p];
            if (pend) {
                s = char_delta[((int64_t)s << 8) + b];
                pend = 0;
            } else if (b == ESCAPE) {
                pend = 1;
            } else {
                s = code_delta[((int64_t)s << 8) + b];
            }
            if (s == m)
                break;
            p++;
        }
        out[r] = (s == m);
    }
}

/* Ordered multi-segment KMP (CometKmpMetaEngine analog, src/algos/
 * Comet.hpp:80-96): K per-segment automata stacked row-major; tab_off[k]
 * is segment k's first state row in the stacked (sum(m_k+1), 256) tables.
 * acc[state][code] = first within-symbol byte index reaching accept (-1 =
 * never); on a mid-symbol accept the symbol's REMAINING expansion bytes
 * feed the next machine char-by-char (sym_bytes/sym_len: 256x8 matrix).
 * Bit-identical to meta_kmp_code_match. */
void meta_kmp_scan(
    const uint8_t *pay, const int64_t *po, int64_t n_rows,
    const int32_t *char_d, const int32_t *code_d, const int32_t *acc,
    const int64_t *tab_off, const int32_t *m_of, int K,
    const uint8_t *sym_bytes, const uint8_t *sym_len, uint8_t *out)
{
    /* machine-0 state-0 skip LUT (same trick as kmp_scan): bytes that
     * neither accept, advance machine 0, nor open an escape pair can be
     * consumed 8 at a time while the walk sits at (k=0, s=0). */
    uint8_t z[256];
    const int64_t b0 = tab_off[0] << 8;
    for (int i = 0; i < 256; i++)
        z[i] = (uint8_t)((i != ESCAPE) && (acc[b0 + i] < 0) &&
                         (code_d[b0 + i] == 0));
    for (int64_t r = 0; r < n_rows; r++) {
        int k = 0;
        int32_t s = 0;
        int pend = 0, done = 0;
        const int64_t end = po[r + 1];
        for (int64_t p = po[r]; p < end && !done; p++) {
            if (k == 0 && s == 0 && !pend && K > 0 && m_of[0] > 0) {
                while (p + 8 <= end) {
                    const uint8_t *q = pay + p;
                    if (z[q[0]] & z[q[1]] & z[q[2]] & z[q[3]] & z[q[4]] &
                        z[q[5]] & z[q[6]] & z[q[7]])
                        p += 8;
                    else
                        break;
                }
                if (p >= end)
                    break;
            }
            const uint8_t b = pay[p];
            if (pend) {
                pend = 0;
                s = char_d[((tab_off[k] + s) << 8) + b];
                if (s == m_of[k]) {
                    k++; s = 0;
                    if (k == K) done = 1;
                }
            } else if (b == ESCAPE) {
                pend = 1;
            } else {
                const int32_t t = acc[((tab_off[k] + s) << 8) + b];
                if (t < 0) {
                    s = code_d[((tab_off[k] + s) << 8) + b];
                } else {
                    k++; s = 0;
                    if (k == K) { done = 1; }
                    else {
                        const int L = sym_len[b];
                        for (int j = (int)t + 1; j < L && !done; j++) {
                            const uint8_t bb = sym_bytes[((int64_t)b << 3) + j];
                            s = char_d[((tab_off[k] + s) << 8) + bb];
                            if (s == m_of[k]) {
                                k++; s = 0;
                                if (k == K) done = 1;
                            }
                        }
                    }
                }
            }
        }
        out[r] = (uint8_t)done;
    }
}

/* Anchored LIKE (`p%`, `%p`) walked over payload UNITS, exact, no
 * automaton (StartsWithEngine, src/algos/StartsWith.hpp:28-37, taken to
 * the whole prefix and mirrored for suffixes). A unit is a code byte
 * b < 255 expanding to sym_bytes[b] (sym_len[b] bytes, 256x8 matrix) or
 * an escape pair [255, x] expanding to x. Forward (from_end == 0): units
 * from the row start, each expansion compared left-aligned with the
 * unmatched head of the needle. Backward: units from the row end,
 * compared right-aligned with the unmatched tail. A mismatch, or the row
 * running out first, is no match; the needle running out is a match, so
 * a row costs O(m) units. Backward unit rule: every byte other than 255
 * ends a unit, so the last byte is an escaped literal iff an odd-length
 * run of 255 bytes precedes it inside the row. A trailing lone 255 (no
 * encoder writes one) expands to nothing, as in fsstlib.decode.
 * Bit-identical to matchers/engines.anchored_match's NumPy walk. */
void anchored_scan(
    const uint8_t *pay, const int64_t *po, int64_t n_rows,
    const uint8_t *sym_bytes, const uint8_t *sym_len,
    const uint8_t *needle, int32_t m, int from_end, uint8_t *out)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t start = po[r], end = po[r + 1];
        int ok = 1;
        if (!from_end) {
            int64_t p = start;
            int32_t j = 0; /* needle bytes matched */
            while (ok && j < m) {
                if (p >= end || (pay[p] == ESCAPE && p + 1 >= end)) {
                    ok = 0;
                    break;
                }
                const uint8_t b = pay[p];
                const uint8_t *s;
                int L;
                if (b == ESCAPE) {
                    s = pay + p + 1; L = 1; p += 2;
                } else {
                    s = sym_bytes + ((int64_t)b << 3); L = sym_len[b]; p += 1;
                }
                const int t = L < m - j ? L : m - j;
                for (int k = 0; k < t; k++)
                    if (s[k] != needle[j + k]) { ok = 0; break; }
                j += t;
            }
        } else {
            int64_t p = end;
            int32_t j = m; /* needle bytes left to match */
            while (ok && j > 0) {
                if (p <= start) {
                    ok = 0;
                    break;
                }
                int64_t q = p - 2;
                while (q >= start && pay[q] == ESCAPE)
                    q--;
                const uint8_t b = pay[p - 1];
                const uint8_t *s;
                int L;
                if ((p - 2 - q) & 1) {
                    s = pay + p - 1; L = 1; p -= 2;
                } else {
                    s = sym_bytes + ((int64_t)b << 3); L = sym_len[b]; p -= 1;
                }
                const int t = L < j ? L : j;
                for (int k = 0; k < t; k++)
                    if (s[L - t + k] != needle[j - t + k]) { ok = 0; break; }
                j -= t;
            }
        }
        out[r] = (uint8_t)ok;
    }
}

/* Per-row polynomial hash over uint32 values (stages/verify._poly_rowhash
 * hot leg): h_row = sum_j (v_j + 1) * P^(j - row_start) mod 2^64, P the
 * FNV-ish odd multiplier. Bit-identical to the NumPy path, but touches
 * 4 bytes per token instead of the ~60 the vectorized formulation
 * materializes (uint64 upcast + position array + power gather + terms) —
 * the encode path's hash leg is bandwidth-bound at 32 cores. */
void poly_rowhash_u32(const uint32_t *v, const int64_t *off, int64_t n_rows,
                      uint64_t *out) {
    const uint64_t P = 0x100000001B3ULL;
    for (int64_t r = 0; r < n_rows; r++) {
        uint64_t h = 0, pw = 1;
        const int64_t end = off[r + 1];
        for (int64_t j = off[r]; j < end; j++) {
            h += ((uint64_t)v[j] + 1) * pw;
            pw *= P;
        }
        out[r] = h;
    }
}

/* Hash-based unique+inverse for the dict codec: one O(n) pass replaces
 * NumPy's O(n log n) full sort with permutation arrays (np.unique
 * return_inverse was ~94% of dict train_encode). Open addressing,
 * multiplicative hash, linear probe; ht_codes == -1 marks empty so any
 * int32 VALUE (including -1) is legal. cap must be a power of two
 * > expected uniques * 2 (caller sizes it). Returns the unique count;
 * uniq_out holds FIRST-SEEN order (caller sorts the small unique array
 * and remaps codes — bit-identical to the NumPy sorted-dict contract). */
long dict_unique(const int32_t *v, int64_t n,
                 int32_t *ht_keys, int32_t *ht_codes, int64_t cap,
                 int32_t *uniq_out, int32_t *codes_out) {
    int64_t mask = cap - 1;
    int32_t u = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t x = v[i];
        uint32_t h = ((uint32_t)x * 2654435761u);
        int64_t p = (int64_t)(h & (uint32_t)mask);
        for (;;) {
            int32_t c = ht_codes[p];
            if (c == -1) {
                ht_keys[p] = x;
                ht_codes[p] = u;
                uniq_out[u] = x;
                codes_out[i] = u;
                u++;
                break;
            }
            if (ht_keys[p] == x) {
                codes_out[i] = c;
                break;
            }
            p = (p + 1) & mask;
        }
    }
    return (long)u;
}

/* Stream-VByte length code of x: its data bytes minus one (0..3). */
static inline unsigned vb_code(uint32_t x)
{
    return (x >= (1u << 8)) + (x >= (1u << 16)) + (x >= (1u << 24));
}

static inline uint32_t zigzag32(uint32_t d)
{
    return (d << 1) ^ (uint32_t)((int32_t)d >> 31);
}

static inline int bit_len32(uint32_t x)
{
    return x ? 32 - __builtin_clz(x) : 0;
}

/* ---- codec-selection statistics (codecs/stats.py) -----------------------
 * Everything the integer codecs' size formulas read: a walk over the
 * rows (a few simple loops per row, each of which vectorizes), then one
 * sweep over the sample, once its umin is known, for the pfor histogram
 * and dict's distinct counts. v[0:off[n_rows]] must
 * be the rows, in order (off[0] = 0). Slots of out (bit-identical to
 * codecs/stats._numpy_stats, the NumPy reference):
 *   0 smin  1 smax  2 umin  3 umax  4 OR of all values
 *   5 varint data bytes of the values
 *   6 runs (never crossing a row start)  7 longest run
 *   8 largest row span (row max - row min, for's delta range)
 *   9 largest within-row zigzag first difference  10 its varint bytes
 *  11 largest within-row zigzag second difference
 *  12..14 distinct values in v[:n/4], v[:n/2], v
 * rpr[r] is row r's run count; hist[b] counts values with
 * bit_length(u - umin) == b. Differences wrap mod 2^32 as in the codecs.
 * An empty stream leaves every slot 0. Returns 0, or -1 when out of
 * memory. */
#define N_STREAM_STATS 15
#define DIRECT_SPAN (1u << 23) /* values counted in a bitmap of <= 1 MB */

static inline uint64_t set_slot(uint64_t key, int lg)
{
    return (key * 0x9E3779B97F4A7C15ULL) >> (64 - lg);
}

/* Insert key (nonzero) into the open-addressing set *slots of 2^*lg
 * slots holding *fill keys, doubling it past load 1/2. Returns -1 when
 * out of memory (the set is then freed). */
static int set_add(uint64_t **slots, int *lg, uint64_t *fill, uint64_t key)
{
    uint64_t *t = *slots;
    const uint64_t mask = (1ULL << *lg) - 1;
    uint64_t p = set_slot(key, *lg);
    while (t[p] && t[p] != key) p = (p + 1) & mask;
    if (t[p]) return 0;
    t[p] = key;
    if (2 * ++*fill <= mask + 1) return 0;
    uint64_t *g = calloc(2 * (mask + 1), 8);
    if (!g) {
        free(t);
        *slots = NULL;
        return -1;
    }
    for (uint64_t i = 0; i <= mask; i++) {
        if (!t[i]) continue;
        uint64_t q = set_slot(t[i], *lg + 1);
        while (g[q]) q = (q + 1) & (2 * mask + 1);
        g[q] = t[i];
    }
    free(t);
    *slots = g;
    ++*lg;
    return 0;
}

int stream_stats(const int32_t *v, const int64_t *off, int64_t n_rows,
                 int64_t *out, int64_t *rpr, int64_t *hist)
{
    int32_t smin = INT32_MAX, smax = INT32_MIN;
    uint32_t umin = UINT32_MAX, umax = 0, orv = 0;
    uint32_t span = 0, zmax = 0, z2max = 0;
    int64_t vlen = 0, runs = 0, maxrun = 0, zlen = 0;
    const int64_t n = off[n_rows];
    memset(hist, 0, 33 * sizeof(int64_t));
    memset(out, 0, N_STREAM_STATS * sizeof(int64_t));
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t s = off[r], e = off[r + 1];
        rpr[r] = 0;
        if (e <= s) continue;
        const int32_t *x = v + s;
        const uint32_t *u = (const uint32_t *)x;
        const int64_t c = e - s;
        int32_t rmin = x[0], rmax = x[0];
        uint32_t rumin = u[0], rumax = u[0], ror = 0, zm = 0, z2m = 0;
        int64_t rl = 0, rz = 0, same = 0;
        for (int64_t j = 0; j < c; j++) {
            rmin = x[j] < rmin ? x[j] : rmin;
            rmax = x[j] > rmax ? x[j] : rmax;
            rumin = u[j] < rumin ? u[j] : rumin;
            rumax = u[j] > rumax ? u[j] : rumax;
            ror |= u[j];
            rl += vb_code(u[j]) + 1;
        }
        for (int64_t j = 1; j < c; j++) {
            const uint32_t z = zigzag32(u[j] - u[j - 1]);
            zm = z > zm ? z : zm;
            rz += vb_code(z) + 1;
            same += u[j] == u[j - 1];
        }
        for (int64_t j = 2; j < c; j++) {
            const uint32_t z2 =
                zigzag32((u[j] - u[j - 1]) - (u[j - 1] - u[j - 2]));
            z2m = z2 > z2m ? z2 : z2m;
        }
        if (same) { /* only a row with a repeat has a run longer than 1 */
            int64_t run = 1;
            for (int64_t j = 1; j < c; j++) {
                run = u[j] == u[j - 1] ? run + 1 : 1;
                maxrun = run > maxrun ? run : maxrun;
            }
        }
        maxrun = maxrun > 1 ? maxrun : 1;
        vlen += rl;
        zlen += rz;
        zmax = zm > zmax ? zm : zmax;
        z2max = z2m > z2max ? z2m : z2max;
        rpr[r] = c - same;
        runs += c - same;
        smin = rmin < smin ? rmin : smin;
        smax = rmax > smax ? rmax : smax;
        umin = rumin < umin ? rumin : umin;
        umax = rumax > umax ? rumax : umax;
        orv |= ror;
        const uint32_t sp = (uint32_t)((int64_t)rmax - (int64_t)rmin);
        span = sp > span ? sp : span;
    }
    if (!n) return 0;
    /* distinct counts: a bitmap over the values up to DIRECT_SPAN above
     * umin, an open-addressing set of u + 1 (0 = empty) for the rest,
     * doubled at load 1/2 */
    const uint64_t range = (uint64_t)umax - umin + 1;
    const uint64_t nbits = range < DIRECT_SPAN ? range : DIRECT_SPAN;
    uint64_t *bits = calloc((nbits + 63) / 64, 8);
    int lg = 10;
    uint64_t fill = 0, *slots = calloc(1u << lg, 8);
    if (!bits || !slots) {
        free(bits);
        free(slots);
        return -1;
    }
    int64_t h4[4][33];
    memset(h4, 0, sizeof h4);
    const int64_t mark[3] = {n / 4, n / 2, n};
    int64_t distinct = 0;
    int m = 0;
    while (m < 3 && mark[m] == 0) m++; /* an empty prefix: 0 */
    for (int64_t j = 0; j < n; j++) {
        const uint32_t u = (uint32_t)v[j];
        const uint32_t d = u - umin;
        h4[j & 3][bit_len32(d)]++;
        if (d < nbits) {
            const uint64_t w = bits[d >> 6], b = 1ULL << (d & 63);
            distinct += !(w & b);
            bits[d >> 6] = w | b;
        } else if (set_add(&slots, &lg, &fill, (uint64_t)u + 1)) {
            free(bits);
            return -1;
        }
        while (m < 3 && mark[m] == j + 1) out[12 + m++] = distinct + fill;
    }
    for (int b = 0; b < 33; b++)
        hist[b] = h4[0][b] + h4[1][b] + h4[2][b] + h4[3][b];
    free(bits);
    free(slots);
    out[0] = smin;
    out[1] = smax;
    out[2] = umin;
    out[3] = umax;
    out[4] = orv;
    out[5] = vlen;
    out[6] = runs;
    out[7] = maxrun;
    out[8] = span;
    out[9] = zmax;
    out[10] = zlen;
    out[11] = z2max;
    return 0;
}

/* ---- Stream-VByte-style varint (codecs/varint.py's hot loops) ----------
 * Layout per row: ceil(count/4) control bytes (2-bit length codes, LE
 * slot order) followed by the data bytes (1-4 LE low bytes per value).
 * Bit-identical to the NumPy path in codecs/varint.py (asserted in
 * tests/test_native.py). varint_layout writes the row payload offsets
 * po[0..n_rows] (po[0] = 0) and returns the total; varint_encode then
 * fills every byte of buf[0:total], so buf need not be zeroed, but it
 * must hold total + 3 bytes. */
int64_t varint_layout(const uint32_t *v, const int64_t *off, int64_t n_rows,
                      int64_t *po) {
    int64_t p = 0;
    po[0] = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t s = off[r], e = off[r + 1];
        p += (e - s + 3) >> 2;
        for (int64_t j = s; j < e; j++)
            p += vb_code(v[j]) + 1;
        po[r + 1] = p;
    }
    return p;
}

void varint_encode(const uint32_t *v, const int64_t *off, int64_t n_rows,
                   const int64_t *po, uint8_t *buf) {
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t s = off[r];
        int64_t cnt = off[r + 1] - s;
        if (!cnt) continue;
        uint8_t *ctrl = buf + po[r];
        uint8_t *data = ctrl + ((cnt + 3) >> 2);
        unsigned c = 0;
        for (int64_t i = 0; i < cnt; i++) {
            uint32_t x = v[s + i];
            unsigned code = vb_code(x);
            c |= code << ((i & 3) << 1);
            if ((i & 3) == 3 || i == cnt - 1) {
                ctrl[i >> 2] = (uint8_t)c;
                c = 0;
            }
            /* all 4 little-endian bytes: the 0-3 past the value's length
             * land on bytes written later (or on the caller's 3 bytes of
             * slack after the last row) */
            const uint8_t le[4] = {(uint8_t)x, (uint8_t)(x >> 8),
                                   (uint8_t)(x >> 16), (uint8_t)(x >> 24)};
            memcpy(data, le, 4);
            data += code + 1;
        }
    }
}

#ifdef __SSSE3__
#include <tmmintrin.h>

/* Stream VByte's pshufb decode (Lemire & Kurz, IPL 2018): one control
 * byte holds the length codes of 4 values; vb_shuf[c] moves their 4..16
 * data bytes into 4 zero-extended uint32 lanes, vb_len[c] is how many
 * data bytes they take. */
static uint8_t vb_shuf[256][16];
static uint8_t vb_len[256];
static pthread_once_t vb_once = PTHREAD_ONCE_INIT;

static void vb_init(void)
{
    for (int c = 0; c < 256; c++) {
        int p = 0;
        for (int k = 0; k < 4; k++) {
            int l = ((c >> (2 * k)) & 3) + 1;
            for (int b = 0; b < 4; b++)
                vb_shuf[c][4 * k + b] = b < l ? (uint8_t)p++ : 0x80;
        }
        vb_len[c] = (uint8_t)p;
    }
}
#endif

/* 1 when varint_decode was compiled with its SSSE3 body, else 0. */
int varint_simd(void)
{
#ifdef __SSSE3__
    return 1;
#else
    return 0;
#endif
}

/* Row r decodes buf[po[r]:] into out[off[r]:off[r + 1]]; rows need not be
 * stored in output order. The SIMD step runs only while >= 16 values are
 * left in the row: those take >= 16 data bytes, so its 16-byte load never
 * reads past the row's own payload. The scalar loop is the tail. */
void varint_decode(const uint8_t *buf, const int64_t *po, const int64_t *off,
                   int64_t n_rows, uint32_t *out) {
#ifdef __SSSE3__
    pthread_once(&vb_once, vb_init);
#endif
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t s = off[r];
        int64_t cnt = off[r + 1] - s;
        if (!cnt) continue;
        const uint8_t *ctrl = buf + po[r];
        const uint8_t *data = ctrl + ((cnt + 3) >> 2);
        int64_t i = 0;
#ifdef __SSSE3__
        for (; cnt - i >= 16; i += 4) {
            unsigned c = ctrl[i >> 2];
            __m128i v = _mm_loadu_si128((const __m128i *)data);
            v = _mm_shuffle_epi8(
                v, _mm_loadu_si128((const __m128i *)vb_shuf[c]));
            _mm_storeu_si128((__m128i *)(out + s + i), v);
            data += vb_len[c];
        }
#endif
        for (; i < cnt; i++) {
            unsigned code = (ctrl[i >> 2] >> ((i & 3) << 1)) & 3u;
            uint32_t x = data[0];
            if (code >= 1) x |= (uint32_t)data[1] << 8;
            if (code >= 2) x |= (uint32_t)data[2] << 16;
            if (code >= 3) x |= (uint32_t)data[3] << 24;
            out[s + i] = x;
            data += code + 1;
        }
    }
}

/* ---- per-row segment moves (bitutil.scatter/gather_segments hot path,
 * shared by the for/rlebp/pfor payload assembly) -------------------------- */
void seg_scatter(uint8_t *buf, const int64_t *dst_base,
                 const int64_t *seg_nbytes, int64_t n_rows,
                 const uint8_t *src) {
    int64_t s = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t nb = seg_nbytes[r];
        if (nb) {
            memcpy(buf + dst_base[r], src + s, (size_t)nb);
            s += nb;
        }
    }
}

void seg_gather(const uint8_t *buf, const int64_t *src_base,
                const int64_t *seg_nbytes, int64_t n_rows, uint8_t *out) {
    int64_t d = 0;
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t nb = seg_nbytes[r];
        if (nb) {
            memcpy(out + d, buf + src_base[r], (size_t)nb);
            d += nb;
        }
    }
}
