"""Lock-discipline analysis: order graph, blocking-under-lock, guarded-by.

Per function, a walker tracks the set of held locks through ``with``
statements and records:

* every acquisition site ``(path, line) -> label`` (the table the
  runtime witness is cross-checked against),
* lock-order edges ``held -> acquired``, both direct (nested ``with``)
  and interprocedural (a call made under a lock reaches a function
  that may acquire),
* blocking operations (fsync, socket I/O, sleep, subprocess, pool
  submits) reached while a lock is held,
* writes to ``# guarded-by:`` attributes outside their lock.

Call resolution is deliberately tiered: typed resolution (traced
attribute/constructor/annotation types, ``# lint: returns`` hints)
always wins; a name-based fallback fires only for names with at most
``_NAME_CAP`` definitions repo-wide and never for generic stdlib-ish
names.  Lock-ORDER edges over-approximate on purpose -- a spurious
static edge costs a stale-annotation warning, a missing one is a
witness failure -- while every blocking finding is meant to be triaged
by a human (fixed or annotated with a reasoned pragma).

The memo lock is an ``RLock``; self-edges on reentrant locks are kept
in the edge set (two *distinct* stores can legally nest, and the
witness may observe that) but excluded from deadlock-cycle detection.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.lint.findings import Finding
from repro.lint.model import ClassInfo, FuncInfo, Index, annotation_names

#: method names too generic for name-based fallback resolution; typed
#: resolution (including `# lint: returns` hints) bypasses this list.
_SKIP_NAMES = frozenset(
    """close start stop run join get put items keys values read write
    send append pop update clear copy result wait set flush encode
    decode add remove submit format count index sort split strip name
    fileno shutdown accept connect serve_forever info debug warning
    error load""".split()
)
_NAME_CAP = 4

_MUTATORS = frozenset(
    """append extend insert remove pop popleft clear update setdefault
    add discard appendleft popitem""".split()
)

#: module.attr calls that block.
_BLOCKING_QUALIFIED = {
    ("os", "fsync"),
    ("os", "fdatasync"),
    ("time", "sleep"),
    ("select", "select"),
    ("socket", "create_connection"),
    ("subprocess", "run"),
    ("subprocess", "Popen"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
}
#: attribute calls that block on any receiver.
_BLOCKING_ATTRS = frozenset(
    "sendall recv recv_into getresponse urlopen serve_forever sendto submit".split()
)
#: attribute calls that block only on receivers whose name carries a token.
_BLOCKING_ATTRS_BY_RECV = {
    "map": ("pool", "executor", "threads", "procs", "workers"),
    "wait": ("event",),
    "request": ("conn",),
    "connect": ("conn", "sock"),
    "accept": ("sock", "listener", "server"),
}
_BLOCKING_NAMES = frozenset({"urlopen", "create_connection"})

_UNRESOLVED = "?"


def _is_lockish_name(name: str) -> bool:
    return name.lower().endswith("lock")


def _flatten_targets(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        out = []
        for elt in target.elts:
            out.extend(_flatten_targets(elt))
        return out
    return [target]


@dataclass
class CallSite:
    line: int
    held: tuple
    callees: list


@dataclass
class FuncFacts:
    fn: FuncInfo
    #: (line, label) for every recognized lock acquisition (label may be "?")
    acquisitions: list = field(default_factory=list)
    direct_edges: list = field(default_factory=list)  # (held, acq, line)
    call_sites: list = field(default_factory=list)
    direct_blocking: list = field(default_factory=list)  # (line, desc, held)
    guarded_findings: list = field(default_factory=list)
    direct_acquires: set = field(default_factory=set)
    direct_block_descs: set = field(default_factory=set)


class LockAnalysis:
    """Whole-tree lock analysis over a collected :class:`Index`."""

    def __init__(self, index: Index):
        self.index = index
        self.facts: dict[str, FuncFacts] = {}  # keyed by modname:qualname
        self.reentrant_labels: set[str] = set()
        self.site_table: dict[tuple, str] = {}  # (path, line) -> label
        self.edges: dict[tuple, tuple] = {}  # (a, b) -> witness (path, line, ctx)
        self.findings: list[Finding] = []
        self._find_reentrant()
        self._enrich_attr_types()

    def _enrich_attr_types(self) -> None:
        """Second collection phase, with the whole index available:
        constructor assignments like ``self.store = session.store``
        type through *other* modules' classes, which the per-module
        collector cannot see.  Two passes settle the chains this
        codebase has."""
        for _ in range(2):
            for mod in self.index.modules.values():
                for cls in mod.classes.values():
                    for fn in cls.methods.values():
                        local_types = self._local_types(fn)
                        for sub in ast.walk(fn.node):
                            if not isinstance(sub, ast.Assign):
                                continue
                            for target in sub.targets:
                                if not (
                                    isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"
                                ):
                                    continue
                                got = self._expr_types(
                                    sub.value, fn, local_types
                                )
                                if got:
                                    cls.attr_types.setdefault(
                                        target.attr, set()
                                    ).update(got)

    # -- reentrancy ------------------------------------------------------------

    def _find_reentrant(self) -> None:
        for mod in self.index.modules.values():
            for node in ast.walk(mod.tree):
                if not (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                fnode = node.value.func
                attr = fnode.attr if isinstance(fnode, ast.Attribute) else (
                    fnode.id if isinstance(fnode, ast.Name) else None
                )
                if attr != "RLock":
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        for cls in mod.classes.values():
                            if target.attr in cls.lock_attrs:
                                self.reentrant_labels.add(
                                    cls.lock_label(target.attr)
                                )
                    elif isinstance(target, ast.Name):
                        if target.id in mod.module_locks:
                            self.reentrant_labels.add(
                                mod.lock_label(target.id)
                            )

    # -- label resolution ------------------------------------------------------

    def _enclosing_class(self, fn: FuncInfo) -> Optional[ClassInfo]:
        if fn.classname is None:
            return None
        return fn.module.classes.get(fn.classname)

    def _class_lock_label(self, cls: ClassInfo, attr: str) -> Optional[str]:
        for h in self.index.hierarchy(cls):
            if attr in h.lock_attrs:
                return h.lock_label(attr)
        return None

    def _attr_lock_label(
        self, attr: str, recv_types: set, recv_name: str = ""
    ) -> Optional[str]:
        """Label for ``<recv>.<attr>`` where attr names a lock."""
        for t in sorted(recv_types):
            for cls in self.index.classes_named(t):
                label = self._class_lock_label(cls, attr)
                if label:
                    return label
        owners = self.index.lock_attr_owners.get(attr, [])
        if len(owners) == 1:
            return owners[0].lock_label(attr)
        if recv_name:
            token = recv_name.lower().lstrip("_").split("_")[-1]
            for cls in owners:
                if token and token in cls.name.lower():
                    return cls.lock_label(attr)
        return None

    def resolve_raw_lock(self, raw: str, fn: FuncInfo) -> str:
        """A lock name from a pragma (`guarded-by:` / `holds-lock:`)."""
        if "." in raw:
            return raw
        cls = self._enclosing_class(fn)
        if cls is not None:
            label = self._class_lock_label(cls, raw)
            if label:
                return label
        if raw in fn.module.module_locks:
            return fn.module.lock_label(raw)
        owners = self.index.lock_attr_owners.get(raw, [])
        if len(owners) == 1:
            return owners[0].lock_label(raw)
        return raw

    # -- expression typing -----------------------------------------------------

    def _expr_types(self, expr, fn: FuncInfo, local_types: dict) -> set:
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and fn.classname:
                return {fn.classname}
            return set(local_types.get(expr.id, ()))
        if isinstance(expr, ast.Attribute):
            base_types = self._expr_types(expr.value, fn, local_types)
            out = set()
            for t in base_types:
                for cls in self.index.classes_named(t):
                    for h in self.index.hierarchy(cls):
                        out.update(h.attr_types.get(expr.attr, ()))
            return out
        if isinstance(expr, ast.Call):
            out = set()
            for callee in self._resolve_call(expr, fn, local_types, typed_only=True):
                out.update(callee.returns)
                out.update(callee.return_types)
            fnode = expr.func
            name = fnode.id if isinstance(fnode, ast.Name) else None
            if name and self.index.classes_named(name):
                out.add(name)
            if name == "cls" and fn.classname:  # cls(...) in a classmethod
                out.add(fn.classname)
            return out
        if isinstance(expr, ast.Subscript):
            # elements of a list attribute -- element types are stored
            # directly as the attr's type by the collector
            return self._expr_types(expr.value, fn, local_types)
        if isinstance(expr, ast.IfExp):
            return self._expr_types(expr.body, fn, local_types) | self._expr_types(
                expr.orelse, fn, local_types
            )
        return set()

    def _local_types(self, fn: FuncInfo) -> dict:
        """varname -> set of class names, from annotations and assignments."""
        types: dict[str, set] = {}
        node = fn.node
        args = node.args
        for arg in list(args.args) + list(args.kwonlyargs) + (
            [args.vararg] if args.vararg else []
        ):
            anns = annotation_names(arg.annotation)
            if anns:
                types[arg.arg] = set(anns)
        # two passes so `a = self.x; b = a.y` chains resolve
        for _ in range(2):
            for sub in ast.walk(node):
                target = None
                value = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value = sub.target, sub.value
                    anns = annotation_names(sub.annotation)
                    if isinstance(target, ast.Name) and anns:
                        types.setdefault(target.id, set()).update(anns)
                elif isinstance(sub, ast.For):
                    target, value = sub.target, sub.iter
                if not isinstance(target, ast.Name) or value is None:
                    continue
                got = self._expr_types(value, fn, types)
                if got:
                    types.setdefault(target.id, set()).update(got)
        return types

    def _local_lock_vars(self, fn: FuncInfo, local_types: dict) -> dict:
        """varname -> lock label, traced through local assignments."""
        out: dict[str, str] = {}
        for sub in ast.walk(fn.node):
            if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            label = self._lock_value_label(sub.value, fn, local_types)
            if label:
                out[target.id] = label
        return out

    def _lock_value_label(self, value, fn: FuncInfo, local_types: dict):
        """Label if ``value`` evaluates to a known lock object."""
        if isinstance(value, ast.BoolOp):
            for sub in value.values:
                label = self._lock_value_label(sub, fn, local_types)
                if label:
                    return label
            return None
        if isinstance(value, ast.IfExp):
            return self._lock_value_label(
                value.body, fn, local_types
            ) or self._lock_value_label(value.orelse, fn, local_types)
        if isinstance(value, ast.Attribute) and _is_lockish_name(value.attr):
            return self._resolve_lock_attr(value, fn, local_types)
        if isinstance(value, ast.Call):
            fnode = value.func
            if isinstance(fnode, ast.Name) and fnode.id == "getattr":
                if len(value.args) >= 2 and isinstance(value.args[1], ast.Constant):
                    attr = value.args[1].value
                    if isinstance(attr, str) and _is_lockish_name(attr):
                        recv = value.args[0]
                        recv_types = self._expr_types(recv, fn, local_types)
                        recv_name = recv.id if isinstance(recv, ast.Name) else ""
                        return self._attr_lock_label(attr, recv_types, recv_name)
            for callee in self._resolve_call(value, fn, local_types, typed_only=True):
                if callee.returns_lock:
                    return callee.returns_lock
        return None

    def _resolve_lock_attr(self, expr: ast.Attribute, fn, local_types):
        attr = expr.attr
        base = expr.value
        if isinstance(base, ast.Name) and base.id == "self":
            cls = self._enclosing_class(fn)
            if cls is not None:
                label = self._class_lock_label(cls, attr)
                if label:
                    return label
                return cls.lock_label(attr)
            return None
        recv_types = self._expr_types(base, fn, local_types)
        recv_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        return self._attr_lock_label(attr, recv_types, recv_name)

    def _lock_expr_label(self, expr, fn: FuncInfo, local_types, lock_vars):
        """(label | "?" | None): what a with-item acquires, if a lock."""
        if isinstance(expr, ast.Attribute):
            # Resolution first: a known lock attribute labels no matter
            # what it is called; the lockish-name heuristic only decides
            # whether an *unresolvable* attr is worth an "?" finding.
            label = self._resolve_lock_attr(expr, fn, local_types)
            if label:
                return label
            return _UNRESOLVED if _is_lockish_name(expr.attr) else None
        if isinstance(expr, ast.Name):
            if expr.id in lock_vars:
                return lock_vars[expr.id]
            if expr.id in fn.module.module_locks:
                return fn.module.lock_label(expr.id)
            if _is_lockish_name(expr.id):
                return _UNRESOLVED
            return None
        if isinstance(expr, ast.Call):
            label = self._lock_value_label(expr, fn, local_types)
            if label:
                return label
            fnode = expr.func
            name = fnode.id if isinstance(fnode, ast.Name) else (
                fnode.attr if isinstance(fnode, ast.Attribute) else ""
            )
            if "lock" in name.lower() and name != "nullcontext":
                return _UNRESOLVED
            return None
        return None

    # -- call resolution -------------------------------------------------------

    def _method_candidates(self, cls: ClassInfo, meth: str) -> list:
        out = []
        for h in self.index.hierarchy(cls):
            if meth in h.methods:
                out.append(h.methods[meth])
        return out

    def _resolve_call(
        self, call: ast.Call, fn: FuncInfo, local_types: dict, typed_only=False
    ) -> list:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            mod = fn.module
            if name in mod.functions:
                return [mod.functions[name]]
            src = mod.imported_names.get(name)
            if src and src in self.index.modules:
                m = self.index.modules[src]
                if name in m.functions:
                    return [m.functions[name]]
            cands = [
                c
                for c in self.index.funcs_by_name.get(name, [])
                if c.classname is None
            ]
            if len(cands) == 1:
                return cands
            return []
        if not isinstance(func, ast.Attribute):
            return []
        meth = func.attr
        base = func.value
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "super"
        ):
            cls = self._enclosing_class(fn)
            out = []
            if cls is not None:
                for base_name in cls.bases:
                    for anc in self.index.classes_named(base_name):
                        out.extend(self._method_candidates(anc, meth))
            return out
        recv_types = self._expr_types(base, fn, local_types)
        if not recv_types and isinstance(base, ast.Name):
            # classmethod/staticmethod reference: Session.load(...)
            if self.index.classes_named(base.id):
                recv_types = {base.id}
        if recv_types:
            out = []
            for t in sorted(recv_types):
                for cls in self.index.classes_named(t):
                    out.extend(self._method_candidates(cls, meth))
            if out:
                seen, uniq = set(), []
                for c in out:
                    key = (c.module.modname, c.qualname)
                    if key not in seen:
                        seen.add(key)
                        uniq.append(c)
                return uniq
        if isinstance(base, ast.Name):
            src = fn.module.imported_names.get(base.id)
            if src and src in self.index.modules:
                m = self.index.modules[src]
                if meth in m.functions:
                    return [m.functions[meth]]
        if typed_only or meth in _SKIP_NAMES:
            return []
        cands = self.index.funcs_by_name.get(meth, [])
        if 1 <= len(cands) <= _NAME_CAP:
            return list(cands)
        return []

    # -- blocking detection ----------------------------------------------------

    def _blocking_desc(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_NAMES:
                return f"{func.id}()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name) and (base.id, attr) in _BLOCKING_QUALIFIED:
            return f"{base.id}.{attr}()"
        if attr in _BLOCKING_ATTRS:
            return f".{attr}()"
        tokens = _BLOCKING_ATTRS_BY_RECV.get(attr)
        if tokens:
            recv = ""
            if isinstance(base, ast.Name):
                recv = base.id
            elif isinstance(base, ast.Attribute):
                recv = base.attr
            recv = recv.lower()
            if any(t in recv for t in tokens):
                return f"{recv}.{attr}()"
        return None

    # -- the per-function walk -------------------------------------------------

    def analyze_function(self, fn: FuncInfo) -> FuncFacts:
        facts = FuncFacts(fn=fn)
        local_types = self._local_types(fn)
        lock_vars = self._local_lock_vars(fn, local_types)
        held0 = [self.resolve_raw_lock(raw, fn) for raw in fn.holds]
        globals_declared: set[str] = set()
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Global):
                globals_declared.update(sub.names)
        exempt_writes = fn.name in ("__init__", "__new__")

        def record_acquire(label: str, line: int, held: list) -> None:
            facts.acquisitions.append((line, label))
            if label != _UNRESOLVED:
                facts.direct_acquires.add(label)
                for h in held:
                    if h != _UNRESOLVED:
                        facts.direct_edges.append((h, label, line))

        def check_write(target, line: int, held: list) -> None:
            if exempt_writes:
                return
            required = None
            what = None
            node = target
            if isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute):
                attr = node.attr
                recv = node.value
                owner = None
                if isinstance(recv, ast.Name) and recv.id == "self":
                    cls = self._enclosing_class(fn)
                    if cls is not None:
                        for h in self.index.hierarchy(cls):
                            if attr in h.guarded:
                                owner = h
                                break
                else:
                    recv_types = self._expr_types(recv, fn, local_types)
                    for t in sorted(recv_types):
                        for cls in self.index.classes_named(t):
                            for h in self.index.hierarchy(cls):
                                if attr in h.guarded:
                                    owner = h
                                    break
                            if owner:
                                break
                        if owner:
                            break
                    if owner is None and not recv_types:
                        owners = self.index.guarded_attr_owners.get(attr, [])
                        if len(owners) == 1:
                            owner = owners[0]
                if owner is not None:
                    raw = owner.guarded[attr]
                    ctx_fn = owner.methods.get("__init__") or fn
                    required = self.resolve_raw_lock(raw, ctx_fn)
                    what = f"{owner.name}.{attr}"
            elif isinstance(node, ast.Name):
                name = node.id
                mod = fn.module
                if name in mod.module_guards and name in globals_declared:
                    required = self.resolve_raw_lock(mod.module_guards[name], fn)
                    what = f"{mod.basename}.{name}"
            if required is not None and required not in held:
                facts.guarded_findings.append(
                    Finding(
                        rule="guarded-by",
                        path=fn.module.path,
                        line=line,
                        message=f"write to {what} without {required} held",
                        context=fn.qualname,
                    )
                )

        def note_call(call: ast.Call, held: list) -> None:
            desc = self._blocking_desc(call)
            if desc is not None:
                facts.direct_block_descs.add(desc)
                if held:
                    facts.direct_blocking.append((call.lineno, desc, tuple(held)))
            callees = self._resolve_call(call, fn, local_types)
            if callees:
                facts.call_sites.append(
                    CallSite(line=call.lineno, held=tuple(held), callees=callees)
                )
            fnode = call.func
            if isinstance(fnode, ast.Attribute) and fnode.attr in _MUTATORS:
                check_write(fnode.value, call.lineno, held)

        def visit(node, held: list) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # nested defs (executor job closures): the body runs on
                # behalf of this function eventually, with no outer lock
                # inherited
                for stmt in node.body:
                    visit(stmt, [])
                return
            if isinstance(node, ast.With):
                pushed = 0
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        if isinstance(sub, ast.Call):
                            note_call(sub, held)
                    label = self._lock_expr_label(
                        item.context_expr, fn, local_types, lock_vars
                    )
                    if label is not None:
                        record_acquire(label, item.context_expr.lineno, held)
                        held.append(label)
                        pushed += 1
                for stmt in node.body:
                    visit(stmt, held)
                for _ in range(pushed):
                    held.pop()
                return
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for t in _flatten_targets(target):
                        check_write(t, node.lineno, held)
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    check_write(t, node.lineno, held)
            elif isinstance(node, ast.Call):
                note_call(node, held)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in fn.node.body:
            visit(stmt, list(held0))
        return facts

    # -- whole-tree driver -----------------------------------------------------

    def run(self) -> None:
        all_funcs = []
        for modname in sorted(self.index.modules):
            mod = self.index.modules[modname]
            for fn in mod.all_funcs():
                key = f"{mod.modname}:{fn.qualname}"
                facts = self.analyze_function(fn)
                self.facts[key] = facts
                all_funcs.append((key, facts))

        may_acquire = {k: set(f.direct_acquires) for k, f in all_funcs}
        blocked_frozen = {
            k for k, f in all_funcs if f.fn.allows_rule("lock-blocking")
        }
        may_block = {
            k: (set() if k in blocked_frozen else set(f.direct_block_descs))
            for k, f in all_funcs
        }
        key_of = {}
        for k, f in all_funcs:
            key_of[(f.fn.module.modname, f.fn.qualname)] = k
        changed = True
        while changed:
            changed = False
            for k, f in all_funcs:
                for site in f.call_sites:
                    for callee in site.callees:
                        ck = key_of.get((callee.module.modname, callee.qualname))
                        if ck is None or ck == k:
                            continue
                        if not may_acquire[ck] <= may_acquire[k]:
                            may_acquire[k] |= may_acquire[ck]
                            changed = True
                        if (
                            k not in blocked_frozen
                            and not may_block[ck] <= may_block[k]
                        ):
                            may_block[k] |= may_block[ck]
                            changed = True

        for k, f in all_funcs:
            path = f.fn.module.path
            ctx = f.fn.qualname
            for line, label in f.acquisitions:
                if label == _UNRESOLVED:
                    self.findings.append(
                        Finding(
                            rule="lock-unresolved",
                            path=path,
                            line=line,
                            message="cannot name the lock acquired here",
                            context=ctx,
                        )
                    )
                else:
                    self.site_table[(path, line)] = label
            for a, b, line in f.direct_edges:
                self.edges.setdefault((a, b), (path, line, ctx))
            seen_blocking = set()
            for line, desc, held in f.direct_blocking:
                if (line, desc) in seen_blocking:
                    continue
                seen_blocking.add((line, desc))
                self.findings.append(
                    Finding(
                        rule="lock-blocking",
                        path=path,
                        line=line,
                        message=f"blocking {desc} while holding {held[-1]}",
                        context=ctx,
                    )
                )
            for site in f.call_sites:
                if not site.held:
                    continue
                for callee in site.callees:
                    ck = key_of.get((callee.module.modname, callee.qualname))
                    if ck is None:
                        continue
                    for acq in may_acquire[ck]:
                        for h in site.held:
                            if h == _UNRESOLVED:
                                continue
                            self.edges.setdefault((h, acq), (path, site.line, ctx))
                    blocks = may_block[ck]
                    if blocks and (site.line, callee.qualname) not in seen_blocking:
                        seen_blocking.add((site.line, callee.qualname))
                        why = sorted(blocks)[0]
                        self.findings.append(
                            Finding(
                                rule="lock-blocking",
                                path=path,
                                line=site.line,
                                message=(
                                    f"call to {callee.qualname} may block "
                                    f"({why}) while holding {site.held[-1]}"
                                ),
                                context=ctx,
                            )
                        )
            self.findings.extend(f.guarded_findings)

        self._find_cycles()

    def _find_cycles(self) -> None:
        graph: dict[str, set] = {}
        for a, b in self.edges:
            if a == b and a in self.reentrant_labels:
                continue
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        counter = [0]
        stack: list[str] = []
        on_stack: set[str] = set()
        indices: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        sccs: list[list[str]] = []

        def strongconnect(v):
            indices[v] = lowlink[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in sorted(graph.get(v, ())):
                if w not in indices:
                    strongconnect(w)
                    lowlink[v] = min(lowlink[v], lowlink[w])
                elif w in on_stack:
                    lowlink[v] = min(lowlink[v], indices[w])
            if lowlink[v] == indices[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)

        for v in sorted(graph):
            if v not in indices:
                strongconnect(v)
        for scc in sccs:
            in_scc = set(scc)
            is_cycle = len(scc) > 1 or scc[0] in graph.get(scc[0], ())
            if not is_cycle:
                continue
            members = sorted(scc)
            a = members[0]
            b = next(x for x in sorted(graph[a]) if x in in_scc)
            path, line, ctx = self.edges[(a, b)]
            self.findings.append(
                Finding(
                    rule="lock-cycle",
                    path=path,
                    line=line,
                    message="lock-order cycle between " + " <-> ".join(members),
                    context=ctx,
                )
            )
