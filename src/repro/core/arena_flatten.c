/*
 * The compile library: three entry points, in C through the CPython C API.
 *
 * repro.core.native builds this file against the running interpreter's
 * headers and opens it with ctypes.PyDLL, so every entry runs with the
 * GIL held.  Each has a Python twin that stays the fallback and the
 * oracle (compile tier "python").
 *
 * repro_flatten is ExprArena._flatten_walk of repro.core.arena over the
 * Expr objects; ExprArena.flatten calls it whenever it loaded.  It
 * builds the Python walk's arena, row for row:
 *
 *   - exact type checks: a node whose type is not one of the five node
 *     classes (a subclass of App included) is foreign, and raises the
 *     error repro.core.arena._foreign_node builds;
 *   - the same push order (an interior node's exit marker below its
 *     children, fn above arg, bound above body), so rows come out in the
 *     same post-order;
 *   - structural dedup on the same keys, (op, aux, left, right) with an
 *     absent field -1, against the arena's rows and the new ones;
 *   - identity dedup of interior objects that can be reached twice: one
 *     held by more than one reference when the walk meets it, or a root.
 *     An object with one reference is reached only through its one
 *     parent, which is walked once, so the 2**50-node doubling DAG still
 *     compiles to 52 rows while most nodes skip the identity table;
 *   - a Var's name interned when it is popped and a binder at its exit,
 *     appended to the arena's name list and to the name -> id dict that
 *     the caller derives from that list for the one call
 *     (ExprArena._leaf_ids);
 *   - literals keyed by the lit_cache_key function the caller passes,
 *     called once per distinct literal object;
 *   - the size of an interior row read from node.size, when the row is
 *     new.
 *
 * The stack is explicit, so a depth-50k chain compiles.  The structural
 * table holds an int32 row index and 32 hash bits per slot and compares
 * a candidate against the row itself; Var and Lit rows are found by name
 * or literal id in a dense array.
 *
 * Every object whose pointer the walk keeps -- on the stack, as an
 * identity key, or a name or value being interned -- is held by a
 * strong reference until the walk lets it go: lit_cache_key and a name's
 * __hash__ or __eq__ run Python code, and Python code can let another
 * thread run.
 *
 * repro_wire is ExprArena._wire_walk over the lists and dicts json.loads
 * returns; ExprArena.extend_wire calls it whenever it loaded.  Entries
 * arrive children first, so an operand stack of (row, size) pairs stands
 * in for the tree, and each entry becomes a row through the same
 * structural table and leaf interning as above, its size derived from
 * its operands'.  It takes only what it can take as it is: exact dicts,
 * lists and strs, and as literals an exact int, float or str under its
 * own tag, a bool under "bool" and an exact int under "float" (as the
 * float literal_value reads).  At anything else it returns None, and the
 * caller rolls back and runs the Python walk, whose checks and messages
 * stay the one source.  It holds the document, its
 * post list and the entry it is reading, and each name or value being
 * interned.
 *
 * repro_resolve is the resolve step of the store's bulk intern
 * (repro.store.store.InternTable.resolve_arena; its twin is the loop
 * repro.store.arena_intern._resolve_loop).  Per arena row, in order, it
 * probes the table's by_hash dict with the row's top hash: a hit checks
 * the class's opcode and size and stamps its row; a miss takes the last
 * freed row or else the next spare one, mints the id and version, writes
 * every column, maps the id to the row and the hash to the id, and adds
 * a reference to each child's row.  The dict keys are ints and labels
 * are only stored, so it runs no Python code; Python reserves the rows
 * before the call and trims the free list after, and buffer exports pin
 * the typed columns, so no Python object is resized under it.  On a hit that fails the collision
 * check it stops at that row, every earlier row written, and Python
 * raises through the one guard.
 *
 * Other threads keep running, too, as they do during the Python twins:
 * once per switch interval (sys.getswitchinterval) each entry releases
 * and retakes the GIL, the resolve step at a row boundary, and a thread
 * that has waited a whole interval for it then takes it.  Releasing more
 * often would wake the waiter before its wait times out, so it would
 * never ask for the GIL.  Every buffer is freed on every exit; a failed
 * allocation raises MemoryError, and any error raised by Python code
 * propagates.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

enum { OP_VAR, OP_LIT, OP_LAM, OP_APP, OP_LET };

/* Nodes popped, entries read or rows resolved between two looks at the
 * clock. */
#define TICKS 4096

/* A stack item: an owned node reference, entering or exiting, and an
 * exit marker's opcode in the bits above these flags. */
#define F_EXIT 1u
#define F_SHARED 2u

typedef struct {
    PyObject *node;
    uint32_t flags;
} Item;

/* A row's structural key; op NO_KEY marks a row no key can name. */
#define NO_KEY 0xFF

typedef struct {
    int32_t left, right, aux;
    uint8_t op;
} Row;

/* A structural table slot: a row index and 32 bits of its key's hash. */
#define EMPTY UINT32_MAX

typedef struct {
    uint32_t row;
    uint32_t tag;
} Slot;

/* An identity table slot: an owned object reference and its id. */
typedef struct {
    PyObject *key;
    int32_t val;
} Ref;

typedef struct {
    Ref *slot;
    size_t cap, len;
} Refs;

/* Slot offsets of the node classes' __slots__ members. */
typedef struct {
    PyTypeObject *var, *lit, *lam, *app, *let;
    Py_ssize_t var_name, lit_value, lam_binder, lam_body, app_fn, app_arg,
        let_binder, let_bound, let_body, size;
} Layout;

typedef struct {
    Layout at;
    PyObject *names, *name_ids, *literals, *lit_ids, *lit_key, *foreign;
    Row *rows;          /* every row's key, the arena's then the new ones */
    size_t n_rows, cap_rows, count0;
    int64_t *sizes;     /* the new rows' sizes */
    size_t cap_sizes;
    Slot *table;        /* Lam, App and Let rows, and stray leaf rows */
    size_t cap_table, len_table;
    int32_t *var_row;   /* Var row by name id, -1 if none */
    size_t n_var;
    int32_t *lit_row;   /* Lit row by literal id, -1 if none */
    size_t n_lit;
    int stray_leaves;   /* some arena leaf row's aux is past its table */
    Refs memo;          /* interior object -> row */
    Refs lits;          /* literal value object -> literal id */
    Item *stack;
    size_t sp, cap_stack;
    int32_t *operands;
    size_t n_operands, cap_operands;
} Walk;

/* A node's slot value (borrowed), or NULL with the AttributeError an
 * unset slot raises. */
static PyObject *slot(PyObject *node, Py_ssize_t offset, const char *attr)
{
    PyObject *value = *(PyObject **)((char *)node + offset);
    if (!value) {
        value = PyObject_GetAttrString(node, attr);
        Py_XDECREF(value);
    }
    return value;
}

/* Room for `need` elements of `size` bytes in *buf; 0 after MemoryError. */
static int grow(void **buf, size_t *cap, size_t need, size_t size)
{
    size_t cap2 = *cap ? *cap : 64;
    void *block;
    if (need <= *cap)
        return 1;
    while (cap2 < need)
        cap2 *= 2;
    if (cap2 > PY_SSIZE_T_MAX / size) {
        PyErr_NoMemory();
        return 0;
    }
    block = PyMem_Realloc(*buf, cap2 * size);
    if (!block) {
        PyErr_NoMemory();
        return 0;
    }
    *buf = block;
    *cap = cap2;
    return 1;
}

/* A dense id -> row array covering `need` ids, new ones -1. */
static int grow_dense(int32_t **dense, size_t *n, size_t need)
{
    size_t cap = *n, old = *n;
    if (need <= *n)
        return 1;
    if (!grow((void **)dense, &cap, need, sizeof(int32_t)))
        return 0;
    memset(*dense + old, 0xFF, (cap - old) * sizeof(int32_t));
    *n = cap;
    return 1;
}

/* -- the identity tables --------------------------------------------------- */

static size_t ref_home(const PyObject *key, size_t mask)
{
    uint64_t h = (uint64_t)(uintptr_t)key * 0x9E3779B97F4A7C15ULL;
    return (size_t)(h ^ (h >> 29)) & mask;
}

static Ref *ref_probe(const Refs *t, const PyObject *key)
{
    size_t mask = t->cap - 1, i = ref_home(key, mask);
    while (t->slot[i].key && t->slot[i].key != key)
        i = (i + 1) & mask;
    return &t->slot[i];
}

/* The id stored for key, or -1. */
static int32_t refs_get(const Refs *t, const PyObject *key)
{
    const Ref *r;
    if (!t->len)
        return -1;
    r = ref_probe(t, key);
    return r->key ? r->val : -1;
}

/* Store key -> val, taking over the caller's reference to key; 0 after
 * MemoryError (the reference is released then). */
static int refs_put(Refs *t, PyObject *key, int32_t val)
{
    Ref *r;
    if ((t->len + 1) * 2 > t->cap) {
        size_t cap = t->cap ? t->cap * 2 : 256, j;
        Refs out;
        out.slot = PyMem_Calloc(cap, sizeof(Ref));
        if (!out.slot) {
            Py_DECREF(key);
            PyErr_NoMemory();
            return 0;
        }
        out.cap = cap;
        out.len = t->len;
        for (j = 0; j < t->cap; j++)
            if (t->slot[j].key)
                *ref_probe(&out, t->slot[j].key) = t->slot[j];
        PyMem_Free(t->slot);
        *t = out;
    }
    r = ref_probe(t, key);
    if (r->key) {
        Py_DECREF(key);
    } else {
        r->key = key;
        t->len++;
    }
    r->val = val;
    return 1;
}

static void refs_free(Refs *t)
{
    size_t j;
    for (j = 0; j < t->cap; j++)
        Py_XDECREF(t->slot[j].key);
    PyMem_Free(t->slot);
    t->slot = NULL;
    t->cap = t->len = 0;
}

/* -- the structural table -------------------------------------------------- */

static uint64_t key_hash(uint8_t op, int32_t aux, int32_t left, int32_t right)
{
    uint64_t h = (uint64_t)(uint32_t)left * 0x9E3779B97F4A7C15ULL;
    h ^= (uint64_t)(uint32_t)right * 0xC2B2AE3D27D4EB4FULL;
    h ^= ((uint64_t)(uint32_t)aux << 3 | op) * 0x165667B19E3779F9ULL;
    h ^= h >> 32;
    h *= 0xBF58476D1CE4E5B9ULL;
    return h ^ (h >> 29);
}

static uint64_t row_hash(const Row *r)
{
    return key_hash(r->op, r->aux, r->left, r->right);
}

/* The slot holding the key's row, or the free slot ending its run. */
static Slot *table_probe(const Walk *w, uint8_t op, int32_t aux, int32_t left,
                         int32_t right, uint64_t h)
{
    size_t mask = w->cap_table - 1, i = (size_t)h & mask;
    uint32_t tag = (uint32_t)(h >> 32);
    for (;; i = (i + 1) & mask) {
        Slot *s = &w->table[i];
        const Row *r;
        if (s->row == EMPTY)
            return s;
        if (s->tag != tag)
            continue;
        r = &w->rows[s->row];
        if (r->op == op && r->aux == aux && r->left == left && r->right == right)
            return s;
    }
}

/* Room for one more table entry at under half load; 0 after MemoryError. */
static int table_reserve(Walk *w)
{
    size_t cap, j, mask;
    Slot *out;
    if ((w->len_table + 1) * 2 <= w->cap_table)
        return 1;
    cap = w->cap_table ? w->cap_table * 2 : 4096;
    out = PyMem_Malloc(cap * sizeof(Slot));
    if (!out) {
        PyErr_NoMemory();
        return 0;
    }
    memset(out, 0xFF, cap * sizeof(Slot));
    mask = cap - 1;
    for (j = 0; j < w->cap_table; j++) {
        uint32_t row = w->table[j].row;
        if (row != EMPTY) {
            uint64_t h = row_hash(&w->rows[row]);
            size_t i = (size_t)h & mask;
            while (out[i].row != EMPTY)
                i = (i + 1) & mask;
            out[i].row = row;
            out[i].tag = (uint32_t)(h >> 32);
        }
    }
    PyMem_Free(w->table);
    w->table = out;
    w->cap_table = cap;
    return 1;
}

/* Enter row `row` (already in rows) unless its key is there: first wins. */
static int table_add(Walk *w, uint32_t row)
{
    const Row *r = &w->rows[row];
    uint64_t h = row_hash(r);
    Slot *s;
    if (!table_reserve(w))
        return 0;
    s = table_probe(w, r->op, r->aux, r->left, r->right, h);
    if (s->row == EMPTY) {
        s->row = row;
        s->tag = (uint32_t)(h >> 32);
        w->len_table++;
    }
    return 1;
}

/* The row index the next new row gets; -1 after an error. */
static int64_t new_row(Walk *w, uint8_t op, int32_t aux, int32_t left,
                       int32_t right, int64_t size)
{
    size_t k = w->n_rows;
    if (k >= INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "arena rows exceed 2**31 - 1");
        return -1;
    }
    if (!grow((void **)&w->rows, &w->cap_rows, k + 1, sizeof(Row))
        || !grow((void **)&w->sizes, &w->cap_sizes, k + 1 - w->count0,
                 sizeof(int64_t)))
        return -1;
    w->rows[k].op = op;
    w->rows[k].aux = aux;
    w->rows[k].left = left;
    w->rows[k].right = right;
    w->sizes[k - w->count0] = size;
    w->n_rows = k + 1;
    return (int64_t)k;
}

/* The row of a Lam, App or Let key, added if new with node.size, or with
 * `size` when there is no node (the wire walk). */
static int64_t interior_row(Walk *w, uint8_t op, int32_t aux, int32_t left,
                            int32_t right, PyObject *node, int64_t size)
{
    uint64_t h = key_hash(op, aux, left, right);
    PyObject *size_obj;
    int64_t row;
    Slot *s;
    if (!table_reserve(w))
        return -1;
    s = table_probe(w, op, aux, left, right, h);
    if (s->row != EMPTY)
        return s->row;
    if (node) {
        size_obj = slot(node, w->at.size, "size");
        if (!size_obj)
            return -1;
        /* A non-int size runs __index__: Python code, so hold it. */
        Py_INCREF(size_obj);
        size = PyLong_AsLongLong(size_obj);
        Py_DECREF(size_obj);
        if (size == -1 && PyErr_Occurred())
            return -1;
    }
    row = new_row(w, op, aux, left, right, size);
    if (row < 0)
        return -1;
    /* The probe above ran no Python code: the slot is still free. */
    s->row = (uint32_t)row;
    s->tag = (uint32_t)(h >> 32);
    w->len_table++;
    return row;
}

/* The row of a Var or Lit key, added if new. */
static int64_t leaf_row(Walk *w, uint8_t op, int32_t id)
{
    int32_t *dense = op == OP_VAR ? w->var_row : w->lit_row;
    int64_t row = dense[id];
    if (row >= 0)
        return row;
    if (w->stray_leaves) {
        Slot *s;
        if (!table_reserve(w))
            return -1;
        s = table_probe(w, op, id, -1, -1, key_hash(op, id, -1, -1));
        if (s->row != EMPTY)
            return dense[id] = (int32_t)s->row;
    }
    row = new_row(w, op, id, -1, -1, 1);
    if (row >= 0)
        dense[id] = (int32_t)row;
    return row;
}

/* -- the leaf tables ------------------------------------------------------- */

/* An id read from the arena's name or literal dict. */
static int32_t table_id(PyObject *value)
{
    Py_ssize_t id = PyLong_AsSsize_t(value);
    if (id == -1 && PyErr_Occurred())
        return -1;
    if (id < 0 || id >= INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "arena table id out of range");
        return -1;
    }
    return (int32_t)id;
}

/* Append key -> len(list) to the dict and value to the list, as the
 * Python walk does; the new id, or -1 after an error. */
static int32_t table_append(PyObject *ids, PyObject *key, PyObject *list,
                            PyObject *value)
{
    Py_ssize_t id = PyList_GET_SIZE(list);
    PyObject *boxed;
    int failed;
    if (id >= INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "arena table exceeds 2**31 - 1");
        return -1;
    }
    boxed = PyLong_FromSsize_t(id);
    if (!boxed)
        return -1;
    failed = PyDict_SetItem(ids, key, boxed) < 0;
    Py_DECREF(boxed);
    if (failed || PyList_Append(list, value) < 0)
        return -1;
    return (int32_t)id;
}

/* The name id of `name` (held by the caller), interned if new. */
static int32_t intern_name(Walk *w, PyObject *name)
{
    PyObject *got = PyDict_GetItemWithError(w->name_ids, name);
    int32_t id;
    if (got)
        id = table_id(got);
    else if (PyErr_Occurred())
        return -1;
    else
        id = table_append(w->name_ids, name, w->names, name);
    if (id < 0 || !grow_dense(&w->var_row, &w->n_var, (size_t)id + 1))
        return -1;
    return id;
}

/* The literal id of `value` (held by the caller), interned if new. */
static int32_t intern_literal(Walk *w, PyObject *value)
{
    int32_t id = refs_get(&w->lits, value);
    PyObject *key, *got;
    if (id >= 0)
        return id;
    key = PyObject_CallOneArg(w->lit_key, value);
    if (!key)
        return -1;
    got = PyDict_GetItemWithError(w->lit_ids, key);
    if (got)
        id = table_id(got);
    else if (PyErr_Occurred())
        id = -1;
    else
        id = table_append(w->lit_ids, key, w->literals, value);
    Py_DECREF(key);
    if (id < 0 || !grow_dense(&w->lit_row, &w->n_lit, (size_t)id + 1))
        return -1;
    Py_INCREF(value);
    if (!refs_put(&w->lits, value, id))
        return -1;
    return id;
}

/* -- the stacks ------------------------------------------------------------ */

/* Push node, taking over the caller's reference; 0 after MemoryError
 * (the reference is released then). */
static int push(Walk *w, PyObject *node, uint32_t flags)
{
    if (!grow((void **)&w->stack, &w->cap_stack, w->sp + 1, sizeof(Item))) {
        Py_DECREF(node);
        return 0;
    }
    w->stack[w->sp].node = node;
    w->stack[w->sp].flags = flags;
    w->sp++;
    return 1;
}

/* Push a child read from its parent's slot, with a reference of its own. */
static int push_child(Walk *w, PyObject *child)
{
    uint32_t flags = Py_REFCNT(child) > 1 ? F_SHARED : 0;
    Py_INCREF(child);
    return push(w, child, flags);
}

static int push_operand(Walk *w, int64_t row)
{
    if (!grow((void **)&w->operands, &w->cap_operands, w->n_operands + 1,
              sizeof(int32_t)))
        return 0;
    w->operands[w->n_operands++] = (int32_t)row;
    return 1;
}

static int32_t pop_operand(Walk *w)
{
    return w->operands[--w->n_operands];
}

/* -- setup ----------------------------------------------------------------- */

/* The offset of cls.attr, a __slots__ member holding an object. */
static int slot_offset(PyObject *cls, const char *attr, Py_ssize_t *out)
{
    PyObject *descr = PyObject_GetAttrString(cls, attr);
    int ok;
    if (!descr)
        return 0;
    ok = Py_IS_TYPE(descr, &PyMemberDescr_Type)
         && ((PyMemberDescrObject *)descr)->d_member->type == T_OBJECT_EX;
    if (ok)
        *out = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    if (!ok)
        PyErr_Format(PyExc_TypeError, "%s.%s is not an object slot",
                     ((PyTypeObject *)cls)->tp_name, attr);
    return ok;
}

/* The five classes (Var, Lit, Lam, App, Let) and their slot offsets. */
static int read_layout(Layout *at, PyObject *classes)
{
    PyObject *var, *lit, *lam, *app, *let;
    if (!PyTuple_Check(classes) || PyTuple_GET_SIZE(classes) != 5) {
        PyErr_SetString(PyExc_TypeError, "expected the five node classes");
        return 0;
    }
    var = PyTuple_GET_ITEM(classes, 0);
    lit = PyTuple_GET_ITEM(classes, 1);
    lam = PyTuple_GET_ITEM(classes, 2);
    app = PyTuple_GET_ITEM(classes, 3);
    let = PyTuple_GET_ITEM(classes, 4);
    if (!PyType_Check(var) || !PyType_Check(lit) || !PyType_Check(lam)
        || !PyType_Check(app) || !PyType_Check(let)) {
        PyErr_SetString(PyExc_TypeError, "expected the five node classes");
        return 0;
    }
    at->var = (PyTypeObject *)var;
    at->lit = (PyTypeObject *)lit;
    at->lam = (PyTypeObject *)lam;
    at->app = (PyTypeObject *)app;
    at->let = (PyTypeObject *)let;
    return slot_offset(var, "name", &at->var_name)
           && slot_offset(lit, "value", &at->lit_value)
           && slot_offset(lam, "binder", &at->lam_binder)
           && slot_offset(lam, "body", &at->lam_body)
           && slot_offset(app, "fn", &at->app_fn)
           && slot_offset(app, "arg", &at->app_arg)
           && slot_offset(let, "binder", &at->let_binder)
           && slot_offset(let, "bound", &at->let_bound)
           && slot_offset(let, "body", &at->let_body)
           && slot_offset(var, "size", &at->size);
}

/* The structural index of the arena's rows: each row's key, as the
 * Python walk derives it, with the first row of each key winning.  The
 * columns are the arena's op bytes and its left, right and aux as int64
 * buffers. */
static int index_rows(Walk *w, PyObject *op_obj, PyObject *left_obj,
                      PyObject *right_obj, PyObject *aux_obj)
{
    Py_buffer views[4];
    PyObject *objs[4] = {op_obj, left_obj, right_obj, aux_obj};
    int n_views = 0, ok = 0;
    size_t n, i, n_names = (size_t)PyList_GET_SIZE(w->names),
                 n_lits = (size_t)PyList_GET_SIZE(w->literals);
    const uint8_t *op;
    const int64_t *left, *right, *aux;

    for (; n_views < 4; n_views++)
        if (PyObject_GetBuffer(objs[n_views], &views[n_views], PyBUF_SIMPLE) < 0)
            goto done;
    n = (size_t)views[0].len;
    for (i = 1; i < 4; i++)
        if ((size_t)views[i].len != n * sizeof(int64_t)) {
            PyErr_Format(PyExc_ValueError,
                         "arena columns differ in length from its %zu rows", n);
            goto done;
        }
    if (n >= INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "arena rows exceed 2**31 - 1");
        goto done;
    }
    if (!grow((void **)&w->rows, &w->cap_rows, n + 1, sizeof(Row))
        || !grow_dense(&w->var_row, &w->n_var, n_names + 1)
        || !grow_dense(&w->lit_row, &w->n_lit, n_lits + 1))
        goto done;
    op = views[0].buf;
    left = views[1].buf;
    right = views[2].buf;
    aux = views[3].buf;
    for (i = 0; i < n; i++) {
        Row *r = &w->rows[i];
        int64_t lo = left[i], hi = right[i], x = aux[i];
        r->op = op[i] > OP_LET ? OP_LET : op[i];
        r->aux = r->op == OP_APP ? -1 : (int32_t)x;
        r->left = r->op < OP_LAM ? -1 : (int32_t)lo;
        r->right = r->op < OP_APP ? -1 : (int32_t)hi;
        if ((r->op != OP_APP && (x < 0 || x >= INT32_MAX))
            || (r->op >= OP_LAM && (lo < -1 || lo >= INT32_MAX))
            || (r->op >= OP_APP && (hi < -1 || hi >= INT32_MAX))) {
            r->op = NO_KEY; /* holds a value no new key holds */
            continue;
        }
        if (r->op == OP_VAR && (size_t)x < n_names) {
            if (w->var_row[x] < 0)
                w->var_row[x] = (int32_t)i;
        } else if (r->op == OP_LIT && (size_t)x < n_lits) {
            if (w->lit_row[x] < 0)
                w->lit_row[x] = (int32_t)i;
        } else {
            if (r->op <= OP_LIT)
                w->stray_leaves = 1;
            if (!table_add(w, (uint32_t)i))
                goto done;
        }
    }
    w->n_rows = w->count0 = n;
    ok = 1;
done:
    while (n_views--)
        PyBuffer_Release(&views[n_views]);
    return ok;
}

static void walk_free(Walk *w)
{
    while (w->sp)
        Py_DECREF(w->stack[--w->sp].node);
    refs_free(&w->memo);
    refs_free(&w->lits);
    PyMem_Free(w->stack);
    PyMem_Free(w->operands);
    PyMem_Free(w->rows);
    PyMem_Free(w->sizes);
    PyMem_Free(w->table);
    PyMem_Free(w->var_row);
    PyMem_Free(w->lit_row);
}

static double seconds(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* The GIL handover schedule of one call. */
typedef struct {
    unsigned ticks;
    double interval, release_at;
} Clock;

/* Start the schedule: `interval` is the switch interval in seconds. */
static int clock_start(Clock *c, PyObject *interval)
{
    c->ticks = 0;
    c->interval = PyFloat_AsDouble(interval);
    if (c->interval == -1.0 && PyErr_Occurred())
        return 0;
    c->release_at = seconds() + c->interval;
    return 1;
}

/* Count one step, at a point where the caller holds every object it
 * keeps.  Once per switch interval (looked at every TICKS steps) release
 * and retake the GIL.  1 after a handover, 0 without, -1 when a signal
 * handler raised. */
static int tick(Clock *c)
{
    if (++c->ticks < TICKS)
        return 0;
    c->ticks = 0;
    if (seconds() < c->release_at)
        return 0;
    Py_BEGIN_ALLOW_THREADS
    Py_END_ALLOW_THREADS
    if (PyErr_CheckSignals() < 0)
        return -1;
    c->release_at = seconds() + c->interval;
    return 1;
}

/* Set up a compile walk over the arena's rows (op_obj, left_obj,
 * right_obj, aux_obj) and tables; 0 after an error, with `w` still safe
 * to free. */
static int walk_start(Walk *w, PyObject *roots, PyObject *names, PyObject *name_ids,
                      PyObject *literals, PyObject *lit_ids, PyObject *lit_key,
                      PyObject *op_obj, PyObject *left_obj, PyObject *right_obj,
                      PyObject *aux_obj)
{
    memset(w, 0, sizeof *w);
    if (!PyList_Check(roots) || !PyList_Check(names) || !PyDict_Check(name_ids)
        || !PyList_Check(literals) || !PyDict_Check(lit_ids)) {
        PyErr_SetString(PyExc_TypeError, "compile walk: bad arguments");
        return 0;
    }
    w->names = names;
    w->name_ids = name_ids;
    w->literals = literals;
    w->lit_ids = lit_ids;
    w->lit_key = lit_key;
    return index_rows(w, op_obj, left_obj, right_obj, aux_obj);
}

static int append_root(PyObject *roots, int32_t row)
{
    PyObject *boxed = PyLong_FromLong(row);
    int failed;
    if (!boxed)
        return 0;
    failed = PyList_Append(roots, boxed) < 0;
    Py_DECREF(boxed);
    return !failed;
}

static void raise_foreign(Walk *w, PyObject *node)
{
    PyObject *exc = PyObject_CallOneArg(w->foreign, node);
    if (exc) {
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        Py_DECREF(exc);
    }
}

/* -- the walk -------------------------------------------------------------- */

/* Pop and compile one stack item; 0 after an error. */
static int step(Walk *w)
{
    Item item = w->stack[--w->sp];
    PyObject *node = item.node, *a, *b, *name;
    PyTypeObject *type = Py_TYPE(node);
    const Layout *at = &w->at;
    int64_t row;
    int32_t id, x, y;
    uint8_t op;

    if (item.flags & F_EXIT) {
        /* The opcode pushed with the marker: the node's class may have
         * been reassigned since, to one of the same layout. */
        op = (uint8_t)(item.flags >> 2);
        y = pop_operand(w);
        if (op == OP_APP) {
            x = pop_operand(w);
            row = interior_row(w, OP_APP, -1, x, y, node, 0);
        } else {
            x = op == OP_LAM ? -1 : pop_operand(w);
            name = slot(node, op == OP_LAM ? at->lam_binder : at->let_binder,
                        "binder");
            if (!name)
                goto fail;
            Py_INCREF(name);
            id = intern_name(w, name);
            Py_DECREF(name);
            if (id < 0)
                goto fail;
            row = op == OP_LAM ? interior_row(w, OP_LAM, id, y, -1, node, 0)
                               : interior_row(w, OP_LET, id, x, y, node, 0);
        }
        if (row < 0 || !push_operand(w, row))
            goto fail;
        if (item.flags & F_SHARED)
            return refs_put(&w->memo, node, (int32_t)row);
        Py_DECREF(node);
        return 1;
    }

    if (type == at->var) {
        name = slot(node, at->var_name, "name");
        if (!name)
            goto fail;
        Py_INCREF(name);
        id = intern_name(w, name);
        Py_DECREF(name);
        row = id < 0 ? -1 : leaf_row(w, OP_VAR, id);
    } else if (type == at->lam || type == at->app || type == at->let) {
        if (item.flags & F_SHARED) {
            row = refs_get(&w->memo, node);
            if (row >= 0)
                goto leave;
        }
        /* Children are read as the Python walk reads them: the second
         * (pushed first) before the first. */
        if (type == at->lam) {
            op = OP_LAM;
            a = NULL;
            b = slot(node, at->lam_body, "body");
        } else if (type == at->app) {
            op = OP_APP;
            b = slot(node, at->app_arg, "arg");
            a = b ? slot(node, at->app_fn, "fn") : NULL;
        } else {
            op = OP_LET;
            b = slot(node, at->let_body, "body");
            a = b ? slot(node, at->let_bound, "bound") : NULL;
        }
        if (!b || (!a && op != OP_LAM))
            goto fail;
        /* The exit marker takes over the popped reference. */
        if (!push(w, node, item.flags | F_EXIT | (uint32_t)op << 2))
            return 0;
        return push_child(w, b) && (!a || push_child(w, a));
    } else if (type == at->lit) {
        a = slot(node, at->lit_value, "value");
        if (!a)
            goto fail;
        Py_INCREF(a);
        id = intern_literal(w, a);
        Py_DECREF(a);
        row = id < 0 ? -1 : leaf_row(w, OP_LIT, id);
    } else {
        raise_foreign(w, node);
        goto fail;
    }
    if (row < 0)
        goto fail;
leave:
    Py_DECREF(node);
    return push_operand(w, row);
fail:
    Py_DECREF(node);
    return 0;
}

/* The new rows as (op, left, right, aux, sizes), one bytes object per
 * column: one byte or one native int64 per row. */
static PyObject *new_columns(const Walk *w)
{
    size_t n = w->n_rows - w->count0, k, c;
    PyObject *out = PyTuple_New(5);
    if (!out)
        return NULL;
    for (c = 0; c < 5; c++) {
        PyObject *col = PyBytes_FromStringAndSize(
            NULL, (Py_ssize_t)(c ? n * sizeof(int64_t) : n));
        char *at;
        if (!col) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, c, col);
        at = PyBytes_AS_STRING(col);
        for (k = 0; k < n; k++) {
            const Row *r = &w->rows[w->count0 + k];
            if (c == 0)
                at[k] = (char)r->op;
            else
                ((int64_t *)at)[k] = c == 1 ? r->left : c == 2 ? r->right
                                   : c == 3 ? r->aux : w->sizes[k];
        }
    }
    return out;
}

/*
 * Compile the roots `exprs` yields into new rows after the arena's
 * rows (op_obj, left_obj, right_obj, aux_obj: bytes-like, the three
 * int64), interning names and literals into the arena's tables.  Each
 * root's row index is appended to the list `roots`.  Returns the new
 * rows (new_columns).  `helpers` is (the five node classes,
 * lit_cache_key, _foreign_node, the switch interval in seconds).
 */
PyObject *repro_flatten(PyObject *exprs, PyObject *roots, PyObject *names,
                        PyObject *name_ids, PyObject *literals,
                        PyObject *lit_ids, PyObject *op_obj,
                        PyObject *left_obj, PyObject *right_obj,
                        PyObject *aux_obj, PyObject *helpers)
{
    Walk w;
    PyObject *it = NULL, *root, *out = NULL;
    Clock clock;

    if (!PyTuple_Check(helpers) || PyTuple_GET_SIZE(helpers) != 4) {
        PyErr_SetString(PyExc_TypeError, "repro_flatten: bad arguments");
        return NULL;
    }
    if (!clock_start(&clock, PyTuple_GET_ITEM(helpers, 3)))
        return NULL;
    if (!walk_start(&w, roots, names, name_ids, literals, lit_ids,
                    PyTuple_GET_ITEM(helpers, 1), op_obj, left_obj, right_obj, aux_obj)
        || !read_layout(&w.at, PyTuple_GET_ITEM(helpers, 0)))
        goto done;
    w.foreign = PyTuple_GET_ITEM(helpers, 2);
    it = PyObject_GetIter(exprs);
    if (!it)
        goto done;
    while ((root = PyIter_Next(it))) {
        PyTypeObject *type = Py_TYPE(root);
        /* Roots are checked before anything hashes them. */
        if (type != w.at.var && type != w.at.lit && type != w.at.lam
            && type != w.at.app && type != w.at.let) {
            raise_foreign(&w, root);
            Py_DECREF(root);
            goto done;
        }
        if (!push(&w, root, F_SHARED))
            goto done;
        while (w.sp)
            if (!step(&w) || tick(&clock) < 0)
                goto done;
        if (!append_root(roots, pop_operand(&w)))
            goto done;
    }
    if (PyErr_Occurred())
        goto done;

    out = new_columns(&w);
done:
    Py_XDECREF(it);
    walk_free(&w);
    return out;
}

/* -- the wire walk --------------------------------------------------------- */

/* What the wire walk makes of an entry or a document: an error raised,
 * compiled, or left to the Python walk. */
enum { W_ERROR, W_DONE, W_FALLBACK };

/* An operand of the wire walk: a row and its subtree's size. */
typedef struct {
    int32_t row;
    int64_t size;
} Operand;

typedef struct {
    Operand *slot;
    size_t n, cap;
} Operands;

static int spells(PyObject *str, const char *ascii)
{
    return PyUnicode_CompareWithASCIIString(str, ascii) == 0;
}

/* The value of a ["c", tag, value] entry (a new reference) when the
 * Python walk takes it as it is: an exact int, float or str under its
 * own tag, a bool under "bool", or an exact int within the float range
 * under "float", read as that float.  NULL with no error set for any
 * other entry, or NULL after an error. */
static PyObject *wire_literal(PyObject *entry)
{
    PyObject *tag, *value;
    double x;
    if (PyList_GET_SIZE(entry) != 3)
        return NULL;
    tag = PyList_GET_ITEM(entry, 1);
    value = PyList_GET_ITEM(entry, 2);
    if (!PyUnicode_CheckExact(tag))
        return NULL;
    if (spells(tag, "int") ? PyLong_CheckExact(value)
        : spells(tag, "str") ? PyUnicode_CheckExact(value)
        : spells(tag, "bool") ? PyBool_Check(value)
        : spells(tag, "float") && PyFloat_CheckExact(value)) {
        Py_INCREF(value);
        return value;
    }
    if (!spells(tag, "float") || !PyLong_CheckExact(value))
        return NULL;
    x = PyLong_AsDouble(value);
    if (x == -1.0 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError))
            PyErr_Clear(); /* beyond the float range: literal_value refuses it */
        return NULL;
    }
    return PyFloat_FromDouble(x);
}

/* Compile one postorder entry (held by the caller) onto the operands. */
static int wire_entry(Walk *w, Operands *s, PyObject *entry)
{
    PyObject *tag, *name, *value;
    Operand a = {-1, 0}, b = {-1, 0};
    int64_t row, size = 1;
    size_t arity;
    int32_t id;
    Py_UCS4 c;

    if (!PyList_CheckExact(entry) || !PyList_GET_SIZE(entry))
        return W_FALLBACK;
    tag = PyList_GET_ITEM(entry, 0);
    if (!PyUnicode_CheckExact(tag) || PyUnicode_GET_LENGTH(tag) != 1)
        return W_FALLBACK;
    c = PyUnicode_READ_CHAR(tag, 0);
    if (c == 'c') {
        value = wire_literal(entry);
        if (!value)
            return PyErr_Occurred() ? W_ERROR : W_FALLBACK;
        id = intern_literal(w, value);
        Py_DECREF(value);
        row = id < 0 ? -1 : leaf_row(w, OP_LIT, id);
    } else if (c == 'a') {
        /* from_wire reads nothing of an App entry past its tag. */
        if (s->n < 2)
            return W_FALLBACK;
        b = s->slot[--s->n];
        a = s->slot[--s->n];
        size = 1 + a.size + b.size;
        row = interior_row(w, OP_APP, -1, a.row, b.row, NULL, size);
    } else if (c == 'v' || c == 'l' || c == 't') {
        arity = c == 'v' ? 0 : c == 'l' ? 1 : 2;
        name = PyList_GET_SIZE(entry) == 2 ? PyList_GET_ITEM(entry, 1) : NULL;
        if (!name || !PyUnicode_CheckExact(name) || !PyUnicode_GET_LENGTH(name)
            || s->n < arity)
            return W_FALLBACK;
        if (arity)
            b = s->slot[--s->n];
        if (arity == 2)
            a = s->slot[--s->n];
        Py_INCREF(name);
        id = intern_name(w, name);
        Py_DECREF(name);
        /* A Lam's absent operand adds nothing to its size. */
        size = 1 + a.size + b.size;
        row = id < 0 ? -1
              : c == 'v' ? leaf_row(w, OP_VAR, id)
              : c == 'l' ? interior_row(w, OP_LAM, id, b.row, -1, NULL, size)
              : interior_row(w, OP_LET, id, a.row, b.row, NULL, size);
    } else {
        return W_FALLBACK;
    }
    if (row < 0 || !grow((void **)&s->slot, &s->cap, s->n + 1, sizeof(Operand)))
        return W_ERROR;
    s->slot[s->n].row = (int32_t)row;
    s->slot[s->n].size = size;
    s->n++;
    return W_DONE;
}

/* Compile one document (held by the caller) and append its root row. */
static int wire_doc(Walk *w, Operands *s, PyObject *doc, PyObject *format,
                    PyObject *roots, Clock *clock)
{
    PyObject *got, *post;
    Py_ssize_t i;
    int status = W_DONE;

    if (!PyDict_CheckExact(doc))
        return W_FALLBACK;
    /* A lookup that raises (a key's __eq__) is left to the Python walk
     * too: PyDict_GetItemString clears the error and returns NULL. */
    got = PyDict_GetItemString(doc, "format");
    if (!got || !PyUnicode_CheckExact(got) || PyUnicode_Compare(got, format) != 0)
        return W_FALLBACK;
    post = PyDict_GetItemString(doc, "post");
    if (!post || !PyList_CheckExact(post) || !PyList_GET_SIZE(post))
        return W_FALLBACK;
    /* Held, as is each entry, across the Python code and the handovers
     * below: another thread may change the document meanwhile. */
    Py_INCREF(post);
    s->n = 0;
    for (i = 0; status == W_DONE && i < PyList_GET_SIZE(post); i++) {
        PyObject *entry = PyList_GET_ITEM(post, i);
        Py_INCREF(entry);
        status = wire_entry(w, s, entry);
        Py_DECREF(entry);
        if (status == W_DONE && tick(clock) < 0)
            status = W_ERROR;
    }
    Py_DECREF(post);
    if (status != W_DONE)
        return status;
    if (s->n != 1)
        return W_FALLBACK;
    return append_root(roots, s->slot[0].row) ? W_DONE : W_ERROR;
}

/*
 * Compile the repro-expr-v1 documents of the list `docs` as
 * ExprArena._wire_walk does, with repro_flatten's arguments but for
 * `helpers`: (lit_cache_key, the format tag, the switch interval in
 * seconds).  Returns the new rows (new_columns); or None at the first
 * document that is not exactly as the walk takes it -- a type that is
 * not exact, a malformed entry or document, a literal it does not read
 * -- with that document's rows, names and literals partly appended, so
 * that the caller rolls back and the Python walk decides.
 */
PyObject *repro_wire(PyObject *docs, PyObject *roots, PyObject *names,
                     PyObject *name_ids, PyObject *literals, PyObject *lit_ids,
                     PyObject *op_obj, PyObject *left_obj, PyObject *right_obj,
                     PyObject *aux_obj, PyObject *helpers)
{
    Walk w;
    Operands s = {NULL, 0, 0};
    PyObject *out = NULL, *format;
    Py_ssize_t i;
    int status = W_DONE;
    Clock clock;

    if (!PyList_Check(docs) || !PyTuple_Check(helpers) || PyTuple_GET_SIZE(helpers) != 3
        || !PyUnicode_Check(format = PyTuple_GET_ITEM(helpers, 1))) {
        PyErr_SetString(PyExc_TypeError, "repro_wire: bad arguments");
        return NULL;
    }
    if (!clock_start(&clock, PyTuple_GET_ITEM(helpers, 2)))
        return NULL;
    if (!walk_start(&w, roots, names, name_ids, literals, lit_ids,
                    PyTuple_GET_ITEM(helpers, 0), op_obj, left_obj, right_obj, aux_obj))
        goto done;
    for (i = 0; status == W_DONE && i < PyList_GET_SIZE(docs); i++) {
        PyObject *doc = PyList_GET_ITEM(docs, i);
        Py_INCREF(doc);
        status = wire_doc(&w, &s, doc, format, roots, &clock);
        Py_DECREF(doc);
    }
    if (status == W_DONE)
        out = new_columns(&w);
    else if (status == W_FALLBACK)
        out = Py_NewRef(Py_None);
done:
    PyMem_Free(s.slot);
    walk_free(&w);
    return out;
}

/* -- the resolve step ------------------------------------------------------ */

/* The buffers of one resolve call: the arena's columns, the table's
 * typed columns, the free list, the class id output and the state. */
enum {
    V_OP, V_LEFT, V_RIGHT, V_AUX, V_SIZE,
    V_T_OP, V_T_LEFT, V_T_RIGHT, V_T_SIZE, V_T_VERSION, V_T_STAMP, V_T_REFCOUNT,
    V_FREE, V_CLASS_ID, V_STATE, N_VIEWS
};

/* The state array's fields. */
enum { S_NEXT_ID, S_VERSION, S_CLOCK, S_SPARE, S_MADE, S_HITS, N_STATE };

typedef struct {
    PyObject *tops, *names, *literals, *by_hash, *row_of, *hashes, *labels;
    const uint8_t *op;
    const int64_t *left, *right, *aux, *size, *free;
    uint8_t *t_op;
    int64_t *t_left, *t_right, *t_size, *t_version, *t_stamp, *t_refcount;
    int64_t *class_id, *row; /* each arena row's class id and table row */
    Py_ssize_t n, cap, n_free, n_names, n_lits;
    int64_t spare; /* the first row never taken */
    int64_t next_id, version, clock, made, hits;
} Resolve;

/* The outcome of one row. */
enum { R_ERROR, R_DONE, R_COLLISION };

/* Export obj's buffer into *view, writable if asked; its length in items
 * of `size` bytes, or -1 after an error. */
static Py_ssize_t take_view(PyObject *obj, Py_buffer *view, int writable,
                            Py_ssize_t size, const char *what)
{
    if (PyObject_GetBuffer(obj, view, writable ? PyBUF_WRITABLE : PyBUF_SIMPLE) < 0)
        return -1;
    if (view->itemsize != size || view->len % size) {
        PyErr_Format(PyExc_TypeError, "%s: expected items of %zd bytes", what, size);
        PyBuffer_Release(view);
        return -1;
    }
    return view->len / size;
}

/* Every row's children below it and its aux inside its table, checked
 * before the first write; 0 after ValueError. */
static int check_rows(const Resolve *r)
{
    Py_ssize_t i, n_names = r->n_names, n_lits = r->n_lits;
    for (i = 0; i < r->n; i++) {
        uint8_t op = r->op[i];
        int64_t x = r->aux[i];
        const char *why = NULL;
        if (op > OP_LET)
            why = "unknown opcode";
        else if ((op >= OP_LAM && (r->left[i] < 0 || r->left[i] >= i))
                 || (op >= OP_APP && (r->right[i] < 0 || r->right[i] >= i)))
            why = "child index not below its row";
        else if (op == OP_LIT ? (x < 0 || x >= n_lits)
                 : op != OP_APP && (x < 0 || x >= n_names))
            why = "aux outside the names or literals";
        if (why) {
            PyErr_Format(PyExc_ValueError, "row %zd: %s", i, why);
            return 0;
        }
    }
    return 1;
}

/* The table row that row_of maps `id` to; -1 after an error. */
static int64_t table_row(const Resolve *r, PyObject *id)
{
    PyObject *got = PyDict_GetItemWithError(r->row_of, id);
    long long row;
    if (!got) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, id);
        return -1;
    }
    row = PyLong_AsLongLong(got);
    if (row == -1 && PyErr_Occurred())
        return -1;
    if (row < 0 || row >= r->cap) {
        PyErr_Format(PyExc_ValueError, "table row %lld out of range", row);
        return -1;
    }
    return row;
}

/* Add the class of arena row i as a new table row: the last row freed
 * (from the end of `free`) or else the next spare one, the next id and
 * version, every column, both maps and a reference to each child.
 * R_DONE, or R_ERROR with nothing of it written. */
static int add_row(Resolve *r, Py_ssize_t i, PyObject *top, int64_t *row_out)
{
    uint8_t op = r->op[i];
    PyObject *label, *id = NULL, *row_obj = NULL;
    int64_t row;
    row = r->made < r->n_free ? r->free[r->n_free - 1 - r->made]
                              : r->spare + (r->made - r->n_free);
    if (row < 0 || row >= r->cap) {
        PyErr_Format(PyExc_ValueError, "resolve step: row %lld not reserved",
                     (long long)row);
        return R_ERROR;
    }
    label = op == OP_APP ? Py_None
            : PyList_GET_ITEM(op == OP_LIT ? r->literals : r->names, r->aux[i]);
    id = PyLong_FromLongLong(r->next_id);
    row_obj = PyLong_FromLongLong(row);
    if (!id || !row_obj || PyDict_SetItem(r->row_of, id, row_obj) < 0)
        goto fail;
    if (PyDict_SetItem(r->by_hash, top, id) < 0) {
        PyObject *type, *value, *trace;
        PyErr_Fetch(&type, &value, &trace);
        if (PyDict_DelItem(r->row_of, id) < 0)
            PyErr_Clear();
        PyErr_Restore(type, value, trace);
        goto fail;
    }
    Py_DECREF(id);
    Py_DECREF(row_obj);
    /* The cleared row holds None in both object columns. */
    Py_INCREF(top);
    PyList_SetItem(r->hashes, row, top);
    Py_INCREF(label);
    PyList_SetItem(r->labels, row, label);
    r->t_op[row] = op;
    r->t_size[row] = r->size[i];
    r->t_left[row] = op >= OP_LAM ? r->class_id[r->left[i]] : -1;
    r->t_right[row] = op >= OP_APP ? r->class_id[r->right[i]] : -1;
    r->t_version[row] = ++r->version;
    r->t_stamp[row] = r->clock++;
    if (op >= OP_LAM)
        r->t_refcount[r->row[r->left[i]]]++;
    if (op >= OP_APP)
        r->t_refcount[r->row[r->right[i]]]++;
    r->next_id++;
    r->made++;
    *row_out = row;
    return R_DONE;
fail:
    Py_XDECREF(id);
    Py_XDECREF(row_obj);
    return R_ERROR;
}

/* Resolve arena row i: a hit takes the next stamp, a miss adds a row. */
static int resolve_row(Resolve *r, Py_ssize_t i)
{
    PyObject *top = PyList_GET_ITEM(r->tops, i), *id;
    int64_t row, class_id;
    if (!PyLong_CheckExact(top)) {
        PyErr_Format(PyExc_TypeError, "row %zd: a top hash is not an int", i);
        return R_ERROR;
    }
    /* int keys: the probes and inserts run no Python code. */
    id = PyDict_GetItemWithError(r->by_hash, top);
    if (id) {
        row = table_row(r, id);
        if (row < 0)
            return R_ERROR;
        if (r->t_op[row] != r->op[i] || r->t_size[row] != r->size[i])
            return R_COLLISION;
        class_id = PyLong_AsLongLong(id);
        if (class_id == -1 && PyErr_Occurred())
            return R_ERROR;
        r->t_stamp[row] = r->clock++;
        r->hits++;
    } else {
        if (PyErr_Occurred())
            return R_ERROR;
        class_id = r->next_id;
        if (add_row(r, i, top, &row) != R_DONE)
            return R_ERROR;
    }
    r->class_id[i] = class_id;
    r->row[i] = row;
    return R_DONE;
}

/* The lists whose lengths the step relies on still have them (another
 * thread may have run); 0 after RuntimeError. */
static int still_sized(const Resolve *r)
{
    if (PyList_GET_SIZE(r->tops) == r->n && PyList_GET_SIZE(r->hashes) == r->cap
        && PyList_GET_SIZE(r->labels) == r->cap && PyList_GET_SIZE(r->names) == r->n_names
        && PyList_GET_SIZE(r->literals) == r->n_lits)
        return 1;
    PyErr_SetString(PyExc_RuntimeError, "resolve step: a list changed size during the call");
    return 0;
}

/*
 * Resolve every arena row against the intern table (the hit-or-add step
 * of repro.store.store.InternTable, for all rows in order).  `arena` is
 * (op, left, right, aux, sizes, names, literals): op bytes-like, the
 * others int64 arrays, then two lists.  `tops` is the list of the rows'
 * top hashes.  `table` is (by_hash, row_of, hashes, labels, ops, lefts,
 * rights, sizes, versions, stamps, refcounts, free, class_ids): two
 * dicts, two lists of the table's length, a bytearray and six int64
 * arrays of it, the int64 free list (rows taken from its end, then the
 * spare rows) and an int64 array of one class id per arena row.
 * `state` is an int64 array (next_id, version, clock, spare, made,
 * hits), read at the start and written back however the call ends;
 * spare is the first row never taken.  Returns -1, or the row whose hit
 * failed the collision check, where the step stopped.
 */
PyObject *repro_resolve(PyObject *arena, PyObject *tops, PyObject *table,
                        PyObject *state_obj, PyObject *interval_obj)
{
    Py_buffer views[N_VIEWS];
    PyObject *objs[N_VIEWS];
    static const int writable[N_VIEWS] = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1};
    Py_ssize_t lens[N_VIEWS], i, failed = -1;
    int n_views = 0, status = R_DONE, yielded;
    int64_t *state = NULL;
    Clock clock;
    Resolve r;

    memset(&r, 0, sizeof r);
    if (!PyTuple_Check(arena) || PyTuple_GET_SIZE(arena) != 7 || !PyList_Check(tops)
        || !PyTuple_Check(table) || PyTuple_GET_SIZE(table) != 13) {
        PyErr_SetString(PyExc_TypeError, "repro_resolve: bad arguments");
        return NULL;
    }
    r.tops = tops;
    r.names = PyTuple_GET_ITEM(arena, 5);
    r.literals = PyTuple_GET_ITEM(arena, 6);
    r.by_hash = PyTuple_GET_ITEM(table, 0);
    r.row_of = PyTuple_GET_ITEM(table, 1);
    r.hashes = PyTuple_GET_ITEM(table, 2);
    r.labels = PyTuple_GET_ITEM(table, 3);
    if (!PyList_Check(r.names) || !PyList_Check(r.literals) || !PyDict_Check(r.by_hash)
        || !PyDict_Check(r.row_of) || !PyList_Check(r.hashes) || !PyList_Check(r.labels)) {
        PyErr_SetString(PyExc_TypeError, "repro_resolve: bad arguments");
        return NULL;
    }
    if (!clock_start(&clock, interval_obj))
        return NULL;

    for (i = 0; i < 5; i++)
        objs[V_OP + i] = PyTuple_GET_ITEM(arena, i);
    for (i = 0; i < 7; i++)
        objs[V_T_OP + i] = PyTuple_GET_ITEM(table, 4 + i);
    objs[V_FREE] = PyTuple_GET_ITEM(table, 11);
    objs[V_CLASS_ID] = PyTuple_GET_ITEM(table, 12);
    objs[V_STATE] = state_obj;
    /* Exported buffers pin the arrays: nothing resizes them mid-call. */
    for (; n_views < N_VIEWS; n_views++) {
        int bytes = n_views == V_OP || n_views == V_T_OP;
        lens[n_views] = take_view(objs[n_views], &views[n_views], writable[n_views],
                                  bytes ? 1 : (Py_ssize_t)sizeof(int64_t), "repro_resolve");
        if (lens[n_views] < 0)
            goto done;
    }
    r.n = lens[V_OP];
    r.cap = PyList_GET_SIZE(r.hashes);
    r.n_free = lens[V_FREE];
    r.n_names = PyList_GET_SIZE(r.names);
    r.n_lits = PyList_GET_SIZE(r.literals);
    for (i = V_LEFT; i <= V_SIZE; i++)
        if (lens[i] != r.n)
            break;
    if (i <= V_SIZE || lens[V_CLASS_ID] != r.n || lens[V_STATE] != N_STATE
        || PyList_GET_SIZE(tops) != r.n) {
        PyErr_Format(PyExc_ValueError, "arena columns differ in length from its %zd rows", r.n);
        goto done;
    }
    for (i = V_T_OP; i <= V_T_REFCOUNT; i++)
        if (lens[i] != r.cap)
            break;
    if (i <= V_T_REFCOUNT || PyList_GET_SIZE(r.labels) != r.cap) {
        PyErr_SetString(PyExc_ValueError, "intern table columns differ in length");
        goto done;
    }
    r.op = views[V_OP].buf;
    r.left = views[V_LEFT].buf;
    r.right = views[V_RIGHT].buf;
    r.aux = views[V_AUX].buf;
    r.size = views[V_SIZE].buf;
    r.t_op = views[V_T_OP].buf;
    r.t_left = views[V_T_LEFT].buf;
    r.t_right = views[V_T_RIGHT].buf;
    r.t_size = views[V_T_SIZE].buf;
    r.t_version = views[V_T_VERSION].buf;
    r.t_stamp = views[V_T_STAMP].buf;
    r.t_refcount = views[V_T_REFCOUNT].buf;
    r.free = views[V_FREE].buf;
    r.class_id = views[V_CLASS_ID].buf;
    state = views[V_STATE].buf;
    r.next_id = state[S_NEXT_ID];
    r.version = state[S_VERSION];
    r.clock = state[S_CLOCK];
    r.spare = state[S_SPARE];
    if (!check_rows(&r))
        goto done;
    r.row = PyMem_Malloc((size_t)(r.n ? r.n : 1) * sizeof(int64_t));
    if (!r.row) {
        PyErr_NoMemory();
        goto done;
    }

    for (i = 0; i < r.n; i++) {
        status = resolve_row(&r, i);
        if (status != R_DONE)
            break;
        /* At a row boundary, no borrowed item held. */
        yielded = tick(&clock);
        if (yielded < 0 || (yielded && !still_sized(&r))) {
            status = R_ERROR;
            break;
        }
    }
    if (status == R_COLLISION)
        failed = i;
done:
    if (state) {
        state[S_NEXT_ID] = r.next_id;
        state[S_VERSION] = r.version;
        state[S_CLOCK] = r.clock;
        state[S_SPARE] = r.spare + (r.made > r.n_free ? r.made - r.n_free : 0);
        state[S_MADE] = r.made;
        state[S_HITS] = r.hits;
    }
    while (n_views--)
        PyBuffer_Release(&views[n_views]);
    PyMem_Free(r.row);
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromSsize_t(failed);
}
