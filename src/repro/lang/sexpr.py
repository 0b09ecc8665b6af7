"""Structured (de)serialisation of expressions.

A JSON-compatible nested-list encoding, for persisting benchmark inputs
and interchanging programs with other tools::

    Var "x"            ->  ["v", "x"]
    Lit 42             ->  ["c", "int", 42]
    Lam "x" e          ->  ["l", "x", <e>]
    App f a            ->  ["a", <f>, <a>]
    Let "x" e1 e2      ->  ["t", "x", <e1>, <e2>]

Literal types are tagged explicitly (``int``/``float``/``bool``/``str``)
because JSON round-trips erase the bool/int distinction that both
syntactic and alpha-equivalence preserve.

Both directions are iterative, so million-node unbalanced expressions
(de)serialise without recursion-limit issues, and :func:`dumps` /
:func:`loads` wrap the encoding in JSON text directly.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.lang.expr import App, Expr, Lam, Let, Lit, Var

__all__ = [
    "to_sexpr",
    "from_sexpr",
    "to_wire",
    "from_wire",
    "dumps",
    "loads",
    "SexprError",
    "WIRE_FORMAT",
    "literal_tag",
    "literal_value",
]

#: Format tag of the flat postorder wire encoding (`dumps`/`to_wire`).
WIRE_FORMAT = "repro-expr-v1"


class SexprError(ValueError):
    """Raised on malformed serialised input."""


_LIT_TAGS = {"int": int, "float": float, "bool": bool, "str": str}


def _is_name(value: Any) -> bool:
    """Whether ``value`` may name a variable or binder: a non-empty str,
    as :class:`~repro.lang.expr.Var` requires (checked here so a decoder
    rejects it with a :class:`SexprError`)."""
    return isinstance(value, str) and value != ""


def literal_tag(value: Any) -> Optional[str]:
    """The tag a literal value is written under: ``"bool"``, ``"int"``,
    ``"float"`` or ``"str"`` by ``isinstance`` (bool first, since a bool
    is an int), or ``None`` for a value of no literal type.

    The one copy of the tag rules on the encode side, shared by
    :func:`to_sexpr`, :func:`to_wire`, the ``repro-arena-v1`` body
    (:func:`repro.service.arena_body.encode_body`) and the snapshot and
    delta writer (:mod:`repro.store.snapshot`).
    """
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    return None


def literal_value(node: list) -> Any:
    """The value of a ``["c", tag, value]`` literal entry.

    The one copy of the literal rules on the decode side, shared by
    :func:`from_sexpr` (hence :func:`from_wire`),
    :meth:`repro.core.arena.ExprArena.extend_wire` and the column
    codecs' literal tables (:func:`repro.core.columns.check_literals`):
    the tag must name a literal type, an integral JSON number is read as
    a float under the ``float`` tag (JSON may render ``1.0`` as ``1``),
    one beyond the float range is refused, and a bool never passes for
    an int.  Every refusal is a :class:`SexprError`.  The native wire
    walk reads only an exact ``int``, ``float`` or ``str`` under its own
    tag, a ``bool`` under ``bool`` and an exact ``int`` under ``float``
    (as the float this function reads), and leaves every other entry to
    this function.
    """
    if len(node) != 3 or node[1] not in _LIT_TAGS:
        raise SexprError(f"malformed literal {node!r}")
    expected = _LIT_TAGS[node[1]]
    value = node[2]
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise SexprError(f"float literal out of range {node!r}") from None
    if not isinstance(value, expected) or (
        expected is int and isinstance(value, bool)
    ):
        raise SexprError(f"literal value/tag mismatch {node!r}")
    return value


def to_sexpr(expr: Expr) -> list:
    """Encode ``expr`` as nested lists (see module docstring)."""
    # Build bottom-up over a postorder walk.
    results: list[Any] = []
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, visited = stack.pop()
        if not visited:
            stack.append((node, True))
            for child in reversed(node.children()):
                stack.append((child, False))
            continue
        if isinstance(node, Var):
            results.append(["v", node.name])
        elif isinstance(node, Lit):
            results.append(["c", literal_tag(node.value) or "str", node.value])
        elif isinstance(node, Lam):
            body = results.pop()
            results.append(["l", node.binder, body])
        elif isinstance(node, App):
            arg = results.pop()
            fn = results.pop()
            results.append(["a", fn, arg])
        else:
            assert isinstance(node, Let)
            body = results.pop()
            bound = results.pop()
            results.append(["t", node.binder, bound, body])
    assert len(results) == 1
    return results[0]


def from_sexpr(data: Any) -> Expr:
    """Decode the nested-list encoding back into an expression."""
    results: list[Expr] = []
    # ops: ("visit", data) | ("build", (tag, binder))
    stack: list[tuple[str, Any]] = [("visit", data)]
    while stack:
        op, payload = stack.pop()
        if op == "build":
            tag, binder = payload
            if tag == "l":
                results.append(Lam(binder, results.pop()))
            elif tag == "a":
                arg = results.pop()
                fn = results.pop()
                results.append(App(fn, arg))
            else:
                body = results.pop()
                bound = results.pop()
                results.append(Let(binder, bound, body))
            continue

        node = payload
        if not isinstance(node, (list, tuple)) or not node:
            raise SexprError(f"expected a tagged list, got {node!r}")
        tag = node[0]
        if tag == "v":
            if len(node) != 2 or not _is_name(node[1]):
                raise SexprError(f"malformed variable {node!r}")
            results.append(Var(node[1]))
        elif tag == "c":
            results.append(Lit(literal_value(node)))
        elif tag == "l":
            if len(node) != 3 or not _is_name(node[1]):
                raise SexprError(f"malformed lambda {node!r}")
            stack.append(("build", ("l", node[1])))
            stack.append(("visit", node[2]))
        elif tag == "a":
            if len(node) != 3:
                raise SexprError(f"malformed application {node!r}")
            stack.append(("build", ("a", None)))
            stack.append(("visit", node[2]))
            stack.append(("visit", node[1]))
        elif tag == "t":
            if len(node) != 4 or not _is_name(node[1]):
                raise SexprError(f"malformed let {node!r}")
            stack.append(("build", ("t", node[1])))
            stack.append(("visit", node[3]))
            stack.append(("visit", node[2]))
        else:
            raise SexprError(f"unknown tag {tag!r}")
    if len(results) != 1:  # pragma: no cover - structural guarantee
        raise SexprError("unbalanced encoding")
    return results[0]


def to_wire(expr: Expr) -> dict:
    """Encode ``expr`` as a JSON-compatible *flat postorder* document.

    The wire form behind :func:`dumps` and the :mod:`repro.service`
    HTTP API: ``{"format": "repro-expr-v1", "post": [...]}`` where each
    entry is one node in postorder -- ``["v", name]``, ``["c", tag,
    value]``, ``["l", binder]``, ``["a"]``, ``["t", binder]``.  Flat
    rather than nested because ``json`` recurses over nested lists,
    which would overflow on the deep binder chains this library
    routinely handles; the decoder replays entries against a stack.

    One pass over an explicit stack: a leaf is written when it is
    popped, and an interior node pushes its own entry, as its exit
    marker, below its children, so the entry is written after them.
    """
    post: list[list] = []
    write = post.append
    stack: list = [expr]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if isinstance(node, list):  # an exit marker: the entry itself
            write(node)
        elif isinstance(node, Var):
            write(["v", node.name])
        elif isinstance(node, App):
            push(["a"])
            push(node.arg)
            push(node.fn)
        elif isinstance(node, Lam):
            push(["l", node.binder])
            push(node.body)
        elif isinstance(node, Let):
            push(["t", node.binder])
            push(node.body)
            push(node.bound)
        elif isinstance(node, Lit):
            value = node.value
            write(["c", literal_tag(value) or "str", value])
        else:
            raise TypeError(
                f"cannot encode non-expression node of type {type(node).__name__}"
            )
    return {"format": WIRE_FORMAT, "post": post}


def dumps(expr: Expr) -> str:
    """Serialise ``expr`` to a JSON string (see :func:`to_wire`)."""
    return json.dumps(to_wire(expr), separators=(",", ":"), sort_keys=True)


def from_wire(payload: Any) -> Expr:
    """Decode a :func:`to_wire` document back into an expression."""
    if not isinstance(payload, dict) or payload.get("format") != WIRE_FORMAT:
        raise SexprError(f"not a {WIRE_FORMAT} document")
    post = payload.get("post")
    if not isinstance(post, list) or not post:
        raise SexprError("missing postorder node list")
    results: list[Expr] = []
    for entry in post:
        if not isinstance(entry, list) or not entry:
            raise SexprError(f"malformed entry {entry!r}")
        tag = entry[0]
        if tag in ("v", "c"):
            results.append(from_sexpr(entry))
        elif tag == "l":
            if len(entry) != 2 or not _is_name(entry[1]) or not results:
                raise SexprError(f"malformed lambda entry {entry!r}")
            results.append(Lam(entry[1], results.pop()))
        elif tag == "a":
            if len(results) < 2:
                raise SexprError("application entry with too few operands")
            arg = results.pop()
            fn = results.pop()
            results.append(App(fn, arg))
        elif tag == "t":
            if len(entry) != 2 or not _is_name(entry[1]) or len(results) < 2:
                raise SexprError(f"malformed let entry {entry!r}")
            body = results.pop()
            bound = results.pop()
            results.append(Let(entry[1], bound, body))
        else:
            raise SexprError(f"unknown entry tag {tag!r}")
    if len(results) != 1:
        raise SexprError("unbalanced postorder stream")
    return results[0]


def loads(text: str) -> Expr:
    """Deserialise an expression from :func:`dumps` output."""
    return from_wire(json.loads(text))
