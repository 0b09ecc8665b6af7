"""Tests for the structured serialisation format.

``TestExtendWireErrors`` runs on both tiers of ``extend_wire`` (the
native wire walk with its fallback, and the Python walk alone), and
``TestToWire`` holds the one-pass ``to_wire`` to the loop it replaced.
"""

import enum
import json
import random

import pytest
from hypothesis import given

from repro.core.arena import ExprArena
from repro.gen.random_exprs import random_expr
from repro.lang.expr import App, Lam, Let, Lit, Var, syntactic_eq
from repro.lang.parser import parse
from repro.lang.sexpr import (
    WIRE_FORMAT,
    SexprError,
    dumps,
    from_sexpr,
    from_wire,
    literal_tag,
    loads,
    to_sexpr,
    to_wire,
)

from strategies import exprs
from test_arena import PythonWalk, arena_state, mixed_corpus


class TestEncoding:
    def test_var(self):
        assert to_sexpr(Var("x")) == ["v", "x"]

    def test_lit_tags(self):
        assert to_sexpr(Lit(1)) == ["c", "int", 1]
        assert to_sexpr(Lit(1.5)) == ["c", "float", 1.5]
        assert to_sexpr(Lit(True)) == ["c", "bool", True]
        assert to_sexpr(Lit("s")) == ["c", "str", "s"]

    def test_nested(self):
        e = parse(r"\x. x 1")
        assert to_sexpr(e) == ["l", "x", ["a", ["v", "x"], ["c", "int", 1]]]

    def test_let(self):
        e = parse("let a = 1 in a")
        assert to_sexpr(e) == ["t", "a", ["c", "int", 1], ["v", "a"]]


class TestRoundTrip:
    @given(exprs(max_size=80))
    def test_sexpr_roundtrip(self, e):
        assert syntactic_eq(from_sexpr(to_sexpr(e)), e)

    @given(exprs(max_size=80))
    def test_json_roundtrip(self, e):
        assert syntactic_eq(loads(dumps(e)), e)

    def test_bool_int_distinction_survives_json(self):
        assert loads(dumps(Lit(True))).value is True
        assert loads(dumps(Lit(1))).value == 1
        assert not isinstance(loads(dumps(Lit(1))).value, bool)

    def test_float_integral_value_survives_json(self):
        out = loads(dumps(Lit(2.0)))
        assert isinstance(out.value, float) and out.value == 2.0

    def test_deep_chain(self):
        e = Var("x")
        for i in range(20_000):
            e = Lam(f"v{i}", e)
        assert syntactic_eq(loads(dumps(e)), e)


#: Malformed nested-form nodes; each is also a malformed wire entry.
MALFORMED = [
    42,
    [],
    ["z", "x"],
    ["v"],
    ["v", 3],
    ["c", "int"],
    ["c", "complex", 1],
    ["c", "int", "not-an-int"],
    ["c", "int", True],
    ["l", 3, ["v", "x"]],
    ["a", ["v", "x"]],
    ["t", "x", ["v", "y"]],
    ["v", ""],
    ["c", "bool", 1],
    ["c", "float", True],
    ["l", "", ["v", "x"]],
    ["t", "", ["v", "x"], ["v", "y"]],
    ["c", "float", 10**400],  # an integral number beyond the float range
]

#: Malformed flat documents (JSON text).
MALFORMED_DOCS = [
    '{"post": []}',
    "[1,2]",
    '{"format":"repro-expr-v1"}',
    '{"format":"repro-expr-v1","post":[]}',
    '{"format":"repro-expr-v1","post":[["v","x"],["v","y"]]}',
    '{"format":"repro-expr-v1","post":[["v","x"],["a"]]}',
    '{"format":"repro-expr-v1","post":[["l","x"]]}',
    '{"format":"repro-expr-v1","post":[["v","x"],["t","y"]]}',
    '{"format":"repro-expr-v1","post":[["v","x"],["l",""]]}',
    '{"format":"repro-expr-v1","post":[["v","x"],["v","y"],["t","y","z"]]}',
]


def wire_cases():
    """Every malformed case as a document: each bad node as a wire
    entry, alone and after a valid prefix the compile must roll back,
    then the malformed flat documents."""
    docs = []
    for bad in MALFORMED:
        docs.append({"format": WIRE_FORMAT, "post": [bad]})
        docs.append(
            {
                "format": WIRE_FORMAT,
                "post": [["v", "fresh"], ["c", "float", 2.5], bad, ["a"]],
            }
        )
    return docs + [json.loads(text) for text in MALFORMED_DOCS]


class TestErrors:
    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed_rejected(self, bad):
        with pytest.raises(SexprError):
            from_sexpr(bad)


class TestFlatFormatErrors:
    def test_not_a_document(self):
        with pytest.raises(SexprError):
            loads('{"post": []}')
        with pytest.raises(SexprError):
            loads('[1,2]')

    def test_unbalanced_stream(self):
        with pytest.raises(SexprError):
            loads('{"format":"repro-expr-v1","post":[["v","x"],["v","y"]]}')

    def test_too_few_operands(self):
        with pytest.raises(SexprError):
            loads('{"format":"repro-expr-v1","post":[["v","x"],["a"]]}')

    @pytest.mark.parametrize("text", MALFORMED_DOCS)
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(SexprError):
            loads(text)


class TestExtendWireErrors:
    """``ExprArena.extend_wire`` rejects exactly what ``from_wire``
    rejects, with the same message, and leaves the arena untouched."""

    @pytest.mark.parametrize("doc", wire_cases())
    def test_same_error_and_arena_unchanged(self, doc):
        with pytest.raises(SexprError) as expected:
            from_wire(doc)
        arena = ExprArena()
        arena.flatten([parse(r"\y. fresh (y 7)")])
        arena.extend_wire([to_wire(parse("let q = 1.5 in q q"))])
        before = arena_state(arena)
        with pytest.raises(SexprError) as got:
            arena.extend_wire([to_wire(parse(r"\z. z other 9")), doc])
        assert str(got.value) == str(expected.value)
        assert arena_state(arena) == before


class TestExtendWireErrorsPythonWalk(PythonWalk, TestExtendWireErrors):
    """:class:`TestExtendWireErrors` with ``extend_wire`` on the Python
    walk alone."""


def reference_to_wire(expr):
    """``to_wire`` as its loop was written before the one-pass loop: a
    ``(node, visited)`` pair and a ``children()`` tuple per node, and the
    literal tags chosen inline.  Kept as the reference the one-pass loop
    must reproduce."""
    post = []
    stack = [(expr, False)]
    while stack:
        node, visited = stack.pop()
        if not visited:
            stack.append((node, True))
            for child in reversed(node.children()):
                stack.append((child, False))
            continue
        if isinstance(node, Var):
            post.append(["v", node.name])
        elif isinstance(node, Lit):
            value = node.value
            if isinstance(value, bool):
                tag = "bool"
            elif isinstance(value, int):
                tag = "int"
            elif isinstance(value, float):
                tag = "float"
            else:
                tag = "str"
            post.append(["c", tag, value])
        elif isinstance(node, Lam):
            post.append(["l", node.binder])
        elif isinstance(node, App):
            post.append(["a"])
        else:
            assert isinstance(node, Let)
            post.append(["t", node.binder])
    return {"format": WIRE_FORMAT, "post": post}


class Shade(enum.IntEnum):
    DARK = 1
    LIGHT = 2


class Text(str):
    """A str subclass: a literal value and a name."""


class MyVar(Var):
    __slots__ = ()


class MyLit(Lit):
    __slots__ = ()


class MyLam(Lam):
    __slots__ = ()


class MyApp(App):
    __slots__ = ()


class MyLet(Let):
    __slots__ = ()


class TestToWire:
    """The one-pass ``to_wire`` writes the documents of the loop it
    replaced: equal, and equal as JSON bytes."""

    @staticmethod
    def assert_same(corpus):
        for expr in corpus:
            got, want = to_wire(expr), reference_to_wire(expr)
            assert got == want
            assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("seed", [3, 5])
    def test_mixed_corpora(self, seed):
        self.assert_same(mixed_corpus(150, seed=seed, size=60))

    def test_let_heavy_corpus(self):
        rng = random.Random(17)
        self.assert_same(
            random_expr(rng.randint(1, 150), rng=rng, p_let=0.6, p_lit=0.3)
            for _ in range(200)
        )

    @given(exprs(max_size=80))
    def test_random_exprs(self, expr):
        self.assert_same([expr])

    def test_literal_values(self):
        values = [
            True, False, 0, 1, -(2**70), 1.0, -0.0, float("nan"), float("inf"),
            "", "a\x00b", "\U0001F600", Shade.DARK, Text("s"),
        ]
        corpus = [Lit(value) for value in values]
        corpus.append(App(Lit(Shade.LIGHT), Let("k", Lit(Text("t")), Var(Text("k")))))
        self.assert_same(corpus)
        assert to_wire(Lit(Shade.DARK))["post"] == [["c", "int", Shade.DARK]]
        assert [literal_tag(value) for value in (True, Shade.DARK, 2.5, Text("s"))] == [
            "bool", "int", "float", "str",
        ]
        assert literal_tag(None) is None

    def test_expr_subclasses(self):
        inner = MyApp(MyVar("f"), MyLit(2))
        corpus = [
            inner,
            MyLam("x", MyLet("y", inner, App(Var("x"), MyVar("y")))),
            App(MyLam("z", Var("z")), Lit(1.5)),
        ]
        self.assert_same(corpus)

    def test_depth_50k_chains(self):
        lam = Var("v0")
        app = Var("x")
        let = Var("x0")
        for i in range(50_000):
            lam = Lam(f"v{i % 7}", lam)
            app = App(app, Lit(i % 3))
            let = Let(f"x{i % 5}", Var(f"x{(i + 1) % 5}"), let)
        self.assert_same([lam, app, let])

    def test_a_foreign_node_is_refused(self):
        bad = App(Var("f"), Var("x"))
        bad.arg = object()
        with pytest.raises(TypeError, match="non-expression node of type object"):
            to_wire(bad)
