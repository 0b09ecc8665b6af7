"""The intern table has one owner: ``store/store.py``.

An AST scan over the ``repro`` source tree.  Every other module reads
the table only; writes go through the store's steps (hit by id,
hit-or-add, restore, unlink), so the collision guard and the table's
invariants live in one place.  A module outside the owners fails this
test if it

* stores into, deletes from, or calls a mutator (``move_to_end``,
  ``pop``, ...) on ``_entries``, ``_by_hash`` or ``_table``;
* does the same to one of a table's containers (``row_of``,
  ``by_hash``, ``free``), columns (``hashes``, ``ops``, ``sizes``,
  ``lefts``, ``rights``, ``labels``, ``versions``, ``stamps``,
  ``refcounts``, ``trees``), eviction heap (``unreferenced``) or id
  log (``log_versions``, ``log_ids``),
  reached through a receiver that names a table or through a local bound
  to one (the names of columns the table no longer has -- ``order``,
  ``kinds``, ``kids`` -- stay listed);
* calls one of the table's write steps (``touch``, ``insert``,
  ``unlink``, ``link``, ``resolve_arena``, ...) on a table;
* assigns ``_next_id``, ``next_id``, ``clock``, ``walked`` or
  ``log_dead``;
* changes an entry's ``refcount``.

``StoreCollisionError`` is raised at exactly one site: the guard.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
OWNERS = {"store/store.py"}
TABLE_ATTRS = {"_entries", "_by_hash", "_table"}
#: An InternTable's containers and columns.
COLUMN_ATTRS = {
    "order",
    "row_of",
    "by_hash",
    "free",
    "hashes",
    "kinds",
    "ops",
    "sizes",
    "kids",
    "lefts",
    "rights",
    "labels",
    "versions",
    "stamps",
    "refcounts",
    "trees",
    "unreferenced",
    "log_versions",
    "log_ids",
}
COUNTER_ATTRS = {"_next_id", "next_id", "clock", "walked", "refcount", "log_dead"}
MUTATORS = {
    "move_to_end",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "append",
    "extend",
    "frombytes",
    "fromlist",
    # InternTable's write steps and helpers
    "touch",
    "hit_or_add_step",
    "resolve_arena",
    "insert",
    "unlink",
    "link",
    "_grow",
    "_reserve",
}


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def is_table(node, aliases=frozenset()) -> bool:
    """``X._entries`` / ``X._by_hash`` / ``X._table``; or a table column
    on a receiver that names a table (``table``, ``store._table``, ...)
    or is a local in ``aliases``."""
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr in TABLE_ATTRS:
        return True
    receiver = node.value
    return node.attr in COLUMN_ATTRS and (
        "table" in ast.unparse(receiver).lower()
        or (isinstance(receiver, ast.Name) and receiver.id in aliases)
    )


def flat_targets(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from flat_targets(elt)
    elif isinstance(target, ast.Starred):
        yield from flat_targets(target.value)
    else:
        yield target


def table_aliases(tree) -> set:
    """Local names bound straight to a table or a column (``entries =
    store._entries``, ``t = store._table``, ``kinds = t.kinds``, also
    inside tuple assignments), to a fixpoint."""
    aliases: set = set()
    while True:
        found = set(aliases)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and is_table(value, aliases):
                        found.add(name.id)
        if found == aliases:
            return aliases
        aliases = found


def table_writes(tree):
    """``(line, source)`` of every table write in one module."""
    aliases = table_aliases(tree)

    def table(node) -> bool:
        return is_table(node, aliases) or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATORS
                and table(func.value)
            ):
                yield node.lineno, ast.unparse(node)
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        for target in targets:
            for sub in flat_targets(target):
                if isinstance(sub, ast.Subscript) and table(sub.value):
                    yield node.lineno, ast.unparse(sub)
                elif isinstance(sub, ast.Attribute) and (
                    sub.attr in COUNTER_ATTRS or is_table(sub, aliases)
                ):
                    yield node.lineno, ast.unparse(sub)


def test_only_the_store_modules_write_the_intern_table():
    offenders = [
        f"{name}:{line}: {source}"
        for name, tree in modules()
        if name not in OWNERS
        for line, source in table_writes(tree)
    ]
    assert offenders == []


def test_the_scan_sees_the_owners_writes():
    """The scan is not vacuous: the owners' own steps register."""
    for name, tree in modules():
        if name in OWNERS:
            assert list(table_writes(tree)), name


def test_one_collision_raise_site():
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and ast.unparse(node.exc.func).split(".")[-1] == "StoreCollisionError"
    ]
    assert len(sites) == 1, sites
    assert sites[0].startswith("store/store.py:")
