"""The collect pass: parse every module and index what the analyzers need.

The analyzers are deliberately repo-shaped rather than general: the
codebase creates every lock as ``threading.Lock()`` / ``threading.RLock()``
assigned to ``self.<attr>`` or a module global, and acquires them only
with ``with`` statements.  That narrowness is what lets a few hundred
lines of AST walking produce a lock-order graph precise enough to be
cross-checked against runtime observations.

Lock labels are short and globally unique by construction:
``ClassName.attr`` for instance locks (``ReproServer.lock``,
``Journal._mutex``) and ``modulebasename.NAME`` for module globals.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.lint.pragmas import FilePragmas, parse_pragmas


def _is_lock_ctor(node: ast.AST) -> bool:
    """``threading.Lock()`` / ``threading.RLock()`` (or bare Lock/RLock)."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr in ("Lock", "RLock") and isinstance(fn.value, ast.Name)
    if isinstance(fn, ast.Name):
        return fn.id in ("Lock", "RLock")
    return False


def _looks_like_class(name: str) -> bool:
    stripped = name.lstrip("_")
    return bool(stripped) and stripped[0].isupper()


def annotation_names(node: Optional[ast.AST]) -> list[str]:
    """Class names out of an annotation (handles strings, Optional[...])."""
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.split("[")[0].split(".")[-1].strip().strip('"')
        return [name] if name and _looks_like_class(name) else []
    if isinstance(node, ast.Name):
        return [node.id] if _looks_like_class(node.id) else []
    if isinstance(node, ast.Attribute):
        return [node.attr] if _looks_like_class(node.attr) else []
    if isinstance(node, ast.Subscript):  # Optional[X], list[X], dict[K, V]
        return annotation_names(node.slice)
    if isinstance(node, ast.Tuple):
        out = []
        for elt in node.elts:
            out.extend(annotation_names(elt))
        return out
    if isinstance(node, ast.BinOp):  # X | None
        return annotation_names(node.left) + annotation_names(node.right)
    return []


@dataclass
class FuncInfo:
    name: str
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: "ModuleInfo"
    classname: Optional[str]
    holds: list = field(default_factory=list)  # raw names from # holds-lock
    allows: list = field(default_factory=list)  # def-line Allow pragmas
    returns: list = field(default_factory=list)  # classes from # lint: returns
    return_types: list = field(default_factory=list)  # real -> annotations
    returns_lock: Optional[str] = None

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def end_lineno(self) -> int:
        return getattr(self.node, "end_lineno", self.node.lineno)

    def allows_rule(self, rule: str) -> Optional[object]:
        for allow in self.allows:
            if rule in allow.rules:
                return allow
        return None


@dataclass
class ClassInfo:
    name: str
    module: "ModuleInfo"
    bases: list = field(default_factory=list)
    lock_attrs: set = field(default_factory=set)
    #: attr -> set of class-name strings (from ctor assigns / annotations)
    attr_types: dict = field(default_factory=dict)
    #: attr -> raw lock name from # guarded-by
    guarded: dict = field(default_factory=dict)
    methods: dict = field(default_factory=dict)

    def lock_label(self, attr: str) -> str:
        return f"{self.name}.{attr}"


@dataclass
class ModuleInfo:
    path: str  # source-root-relative, e.g. "repro/store/journal.py"
    modname: str  # dotted, e.g. "repro.store.journal"
    tree: ast.Module
    pragmas: FilePragmas
    classes: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)  # module-level defs
    module_locks: set = field(default_factory=set)
    module_guards: dict = field(default_factory=dict)  # global -> raw lock
    #: imported name -> source module ("from repro.x import f" => f: repro.x)
    imported_names: dict = field(default_factory=dict)

    @property
    def basename(self) -> str:
        return self.modname.rsplit(".", 1)[-1]

    def lock_label(self, name: str) -> str:
        return f"{self.basename}.{name}"

    def all_funcs(self):
        for fn in self.functions.values():
            yield fn
        for cls in self.classes.values():
            for fn in cls.methods.values():
                yield fn


class Index:
    """Cross-module lookup tables for resolution."""

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}
        self.class_by_name: dict[str, list[ClassInfo]] = {}
        self.funcs_by_name: dict[str, list[FuncInfo]] = {}
        self.lock_attr_owners: dict[str, list[ClassInfo]] = {}
        self.guarded_attr_owners: dict[str, list[ClassInfo]] = {}
        self.subclasses: dict[str, set[str]] = {}
        self.lock_labels: set[str] = set()

    def add(self, mod: ModuleInfo) -> None:
        self.modules[mod.modname] = mod
        for name in mod.module_locks:
            self.lock_labels.add(mod.lock_label(name))
        for fn in mod.functions.values():
            self.funcs_by_name.setdefault(fn.name, []).append(fn)
        for cls in mod.classes.values():
            self.class_by_name.setdefault(cls.name, []).append(cls)
            for base in cls.bases:
                self.subclasses.setdefault(base, set()).add(cls.name)
            for attr in cls.lock_attrs:
                self.lock_attr_owners.setdefault(attr, []).append(cls)
                self.lock_labels.add(cls.lock_label(attr))
            for attr in cls.guarded:
                self.guarded_attr_owners.setdefault(attr, []).append(cls)
            for fn in cls.methods.values():
                self.funcs_by_name.setdefault(fn.name, []).append(fn)

    def classes_named(self, name: str) -> list[ClassInfo]:
        return self.class_by_name.get(name, [])

    def hierarchy(self, cls: ClassInfo) -> list[ClassInfo]:
        """cls plus its ancestors and descendants (by name, one hop deep
        in each direction is enough for this codebase's flat trees)."""
        seen = {cls.name: cls}
        frontier = list(cls.bases) + sorted(self.subclasses.get(cls.name, ()))
        for name in frontier:
            for other in self.classes_named(name):
                if other.name not in seen:
                    seen[other.name] = other
                    frontier.extend(other.bases)
                    frontier.extend(sorted(self.subclasses.get(other.name, ())))
        return list(seen.values())


def _scan_function_pragmas(fn: FuncInfo) -> None:
    pragmas = fn.module.pragmas
    line = fn.lineno
    fn.holds = list(pragmas.holds.get(line, ()))
    fn.allows = list(pragmas.allows_at(line))
    fn.returns = list(pragmas.returns.get(line, ()))
    fn.return_types = annotation_names(fn.node.returns)
    fn.returns_lock = pragmas.returns_lock.get(line)


def _infer_attr_type(value: ast.AST, param_anns: dict) -> list[str]:
    """Class names for ``self.x = <value>`` in a constructor."""
    if isinstance(value, ast.IfExp):
        return _infer_attr_type(value.body, param_anns) + _infer_attr_type(
            value.orelse, param_anns
        )
    if isinstance(value, ast.Call):
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name and _looks_like_class(name):
            return [name]
        return []
    if isinstance(value, ast.Name):
        return param_anns.get(value.id, [])
    if isinstance(value, (ast.List, ast.ListComp, ast.DictComp, ast.Dict)):
        # element types: [C(...) for _ in ...] / [C(), C()]
        elts = []
        if isinstance(value, ast.ListComp):
            elts = [value.elt]
        elif isinstance(value, ast.List):
            elts = value.elts[:1]
        out = []
        for elt in elts:
            out.extend(_infer_attr_type(elt, param_anns))
        return out
    return []


def _collect_class(node: ast.ClassDef, mod: ModuleInfo) -> ClassInfo:
    cls = ClassInfo(
        name=node.name,
        module=mod,
        bases=[b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
               for b in node.bases],
    )
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            # dataclass-style field annotations
            anns = annotation_names(stmt.annotation)
            if anns:
                cls.attr_types.setdefault(stmt.target.id, set()).update(anns)
            raw = mod.pragmas.guards.get(stmt.lineno)
            if raw:
                cls.guarded[stmt.target.id] = raw
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fn = FuncInfo(
            name=stmt.name,
            qualname=f"{node.name}.{stmt.name}",
            node=stmt,
            module=mod,
            classname=node.name,
        )
        _scan_function_pragmas(fn)
        cls.methods[stmt.name] = fn
        is_property = any(
            isinstance(d, ast.Name) and d.id == "property"
            for d in stmt.decorator_list
        )
        if is_property:
            anns = annotation_names(stmt.returns)
            if anns:
                cls.attr_types.setdefault(stmt.name, set()).update(anns)
        # parameter annotations, for `self.x = x` tracing
        param_anns = {}
        for arg in list(stmt.args.args) + list(stmt.args.kwonlyargs):
            anns = annotation_names(arg.annotation)
            if anns:
                param_anns[arg.arg] = anns
        for sub in ast.walk(stmt):
            targets = []
            value = None
            if isinstance(sub, ast.Assign):
                targets, value = sub.targets, sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if _is_lock_ctor(value):
                    cls.lock_attrs.add(attr)
                raw = mod.pragmas.guards.get(sub.lineno)
                if raw:
                    cls.guarded.setdefault(attr, raw)
                if isinstance(sub, ast.AnnAssign):
                    anns = annotation_names(sub.annotation)
                else:
                    anns = _infer_attr_type(value, param_anns)
                if anns:
                    cls.attr_types.setdefault(attr, set()).update(
                        a for a in anns if _looks_like_class(a)
                    )
    return cls


def collect_module(path: str, modname: str, source: str) -> ModuleInfo:
    tree = ast.parse(source)
    mod = ModuleInfo(
        path=path, modname=modname, tree=tree, pragmas=parse_pragmas(source)
    )
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if _is_lock_ctor(stmt.value):
                        mod.module_locks.add(target.id)
                    raw = mod.pragmas.guards.get(stmt.lineno)
                    if raw:
                        mod.module_guards[target.id] = raw
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None and _is_lock_ctor(stmt.value):
                mod.module_locks.add(stmt.target.id)
            raw = mod.pragmas.guards.get(stmt.lineno)
            if raw:
                mod.module_guards[stmt.target.id] = raw
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FuncInfo(
                name=stmt.name,
                qualname=stmt.name,
                node=stmt,
                module=mod,
                classname=None,
            )
            _scan_function_pragmas(fn)
            mod.functions[stmt.name] = fn
        elif isinstance(stmt, ast.ClassDef):
            cls = _collect_class(stmt, mod)
            mod.classes[cls.name] = cls
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                mod.imported_names[alias.asname or alias.name] = stmt.module
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                mod.imported_names[alias.asname or alias.name] = alias.name
    return mod
