"""Tests for the structured serialisation format."""

import json

import pytest
from hypothesis import given

from repro.core.arena import ExprArena
from repro.lang.expr import App, Lam, Lit, Var, syntactic_eq
from repro.lang.parser import parse
from repro.lang.sexpr import (
    WIRE_FORMAT,
    SexprError,
    dumps,
    from_sexpr,
    from_wire,
    loads,
    to_sexpr,
    to_wire,
)

from strategies import exprs
from test_arena import arena_state


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
