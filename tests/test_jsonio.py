"""Parity of :func:`orthosym.jsonio.loads` with :func:`json.loads`.

``loads`` must return the same value, bitwise and in type (``int`` against
``float``), or raise the same exception with the same message.  Every array
case is padded past :data:`jsonio.PIECE_CHARS`, so that the chunked orjson
path reads it and not only the standard library's small-array path.
"""

import json
import math
import struct
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthosym import jsonio
from orthosym.jsonio import PIECE_CHARS, float_array, loads


def identical(a, b) -> bool:
    """Equal values of equal types, floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(identical, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    return a == b


def outcome(parse, text):
    try:
        return "value", parse(text)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def assert_same(text):
    got, want = outcome(loads, text), outcome(json.loads, text)
    assert got[0] == want[0]
    if want[0] == "value":
        assert identical(got[1], want[1])
    else:
        assert got[1] == want[1]


def padded(items) -> str:
    """The texts in ``items`` repeated into one array body past PIECE_CHARS."""
    body = ", ".join(items)
    return ", ".join([body] * (PIECE_CHARS // (len(body) + 2) + 2))


PAD = padded(["0.125", "-3", "6.02214076e-23", "-9.2e18", "1e-300"])


def assert_read_by_orjson(text):
    """The fast decoder alone, with no fall-back to :mod:`json`, reads an
    array of numbers within 64-bit integer range."""
    want = json.loads(text)
    assert max(map(abs, want)) < 2**63
    assert identical(jsonio._Decoder().decode(text), want)


def halfway(x: float) -> Decimal:
    """The exact decimal midpoint between ``x`` and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 1200
        return (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestNumberParity:
    @given(st.lists(finite, min_size=1, max_size=40), st.sampled_from([repr, "{:.17g}".format]))
    def test_float_lists(self, xs, render):
        text = "[" + padded([render(x) for x in xs]) + "]"
        assert_same(text)
        if max(map(abs, xs)) < 2**63:
            assert_read_by_orjson(text)

    @given(finite.filter(lambda x: abs(x) < 2**62), st.integers(0, 4))
    def test_halfway_decimals(self, x, shift):
        mid = halfway(x)
        # the exact midpoint, and the midpoint moved by one unit in its last
        # kept digit: below, on and above the tie between two doubles
        with localcontext() as ctx:
            ctx.prec = 40
            near = [+mid, mid.next_minus(), mid.next_plus()]
        items = [str(mid)] + [str(v) for v in near] + [f"{x:.16e}"]
        text = "[" + padded(items[shift:] + items[:shift]) + "]"
        assert_same(text)
        assert_read_by_orjson(text)

    @given(st.lists(st.integers(-(2**63) + 1, 2**63 - 1), min_size=1, max_size=40))
    def test_integers_stay_int(self, ns):
        assert_read_by_orjson("[" + padded([str(n) for n in ns] + ["1.0"]) + "]")


EDGE_ARRAYS = [
    "1,,2",
    "1,2,",
    "NaN",
    "-Infinity",
    "1e400",
    "18446744073709551616",
    "-9223372036854775809",
    "9223372036854775808",
    "1٢",
    '"a,]b", 1',
    "[1],[2]",
    "true, 1.0",
    "null",
    "01",
    "1 2",
    "+1",
    ".5",
    "1.",
    "1e",
    "\f1",
    "1}",
    "1:",
]


class TestEdgeTable:
    @pytest.mark.parametrize("case", EDGE_ARRAYS)
    @pytest.mark.parametrize("where", ["first", "last", "alone"])
    def test_padded_array(self, case, where):
        body = {"first": f"{case}, {PAD}", "last": f"{PAD}, {case}", "alone": case}[where]
        assert_same(f"[{body}]")
        assert_same(f'{{"dim": 4, "re": [{body}], "im": [{PAD}]}}')

    @pytest.mark.parametrize(
        "template", ["[{h},,1, {p}]", "[{h}, ,1, {p}]", "[{h},,]", "[{h},]", "[{h},\n]"]
    )
    def test_defect_on_every_side_of_a_piece_boundary(self, template):
        # the first cut is the first comma at or past PIECE_CHARS: end the head
        # just before, on and after it, so that the cut falls before, on and
        # after each comma of the defect
        for size in range(PIECE_CHARS - 4, PIECE_CHARS + 4):
            ones = 2 - size % 2
            head = "1" * ones + ",1" * ((size - ones) // 2)
            assert len(head) == size
            assert_same(template.format(h=head, p=PAD))

    def test_valid_arrays_on_every_side_of_a_piece_boundary(self):
        for size in range(PIECE_CHARS - 4, PIECE_CHARS + 4):
            ones = 2 - size % 2
            assert_read_by_orjson("[" + "1" * ones + ",1" * ((size - ones) // 2) + ", 2.5]")

    def test_rows_of_a_nested_array_are_read_by_orjson(self):
        text = f'{{"rows": [[{PAD}], [{PAD}, 2]], "d": 3}}'
        assert identical(jsonio._Decoder().decode(text), json.loads(text))

    def test_empty_arrays(self):
        assert_same("[ ]")
        assert_same("[" + " " * (PIECE_CHARS + 7) + "]")
        assert_same('{"re": [' + "\n" * (2 * PIECE_CHARS) + "], \"im\": [1]}")

    def test_duplicate_keys_keep_the_last(self):
        text = f'{{"re": [{PAD}], "re": [{PAD}, 7]}}'
        assert_same(text)
        assert jsonio._Decoder().decode(text)["re"][-1] == 7

    def test_byte_order_mark(self):
        assert_same(f"﻿[{PAD}]")
        assert_same(f'﻿{{"re": [{PAD}]}}')

    @pytest.mark.parametrize("depth", [1, 40, 400, 2000, 100_000])
    def test_deep_nesting(self, depth):
        assert_same("[" * depth + PAD + "]" * depth)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            f"[{PAD}] x",
            f"[{PAD}",
            f'{{"re": [{PAD}]',
            f'{{"re" [{PAD}]}}',
            '{"d": 1' + "0" * 400 + "}",
            "1" * 5000,
            '"\\ud800"',
            f"[{PAD}, Infinity]",
            f'{{"d": NaN, "re": [{PAD}]}}',
        ],
    )
    def test_other_documents(self, text):
        assert_same(text)

    def test_without_orjson_json_reads_the_text(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "orjson", None)
        text = f'{{"re": [{PAD}], "im": [1, 2]}}'
        assert identical(loads(text), json.loads(text))


class TestFloatArray:
    @pytest.mark.parametrize("raw", [[1, 0.5, -2], [], [2**70]])
    def test_accepts_json_numbers(self, raw):
        out = float_array(raw, "re")
        assert out.dtype == np.float64
        assert out.tolist() == [float(x) for x in raw]

    @pytest.mark.parametrize(
        "raw",
        [["0.25"], [1.0, False], [None], [True], [[1.0]], [{"a": 1}], {"a": 1}, 0.5, "1", None],
    )
    def test_rejects_everything_else(self, raw):
        with pytest.raises(ValueError, match="re must hold JSON numbers only"):
            float_array(raw, "re")
