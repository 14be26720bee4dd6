"""Parity of :func:`orthosym.jsonio.loads` with :func:`json.loads`.

``loads(data)`` reads the bytes of a document: it must return the value of
``json.loads(text)`` on the text they decode to, bitwise and in type (``int``
against ``float``), or raise the same exception with the same message (the
``UnicodeDecodeError`` of bytes that are not UTF-8 included).  The one
difference allowed is that a long flat array of numbers comes back as a
float64 array: it is compared with the list ``json.loads`` gives after
:func:`float_array` on both sides, bit for bit, with the same exception and
message where ``float_array`` refuses.  Every array case is padded past
:data:`jsonio.PIECE_CHARS`, so that the chunked orjson path reads it and not
only the standard library's small-array path.  Which path read a document is
told by refusing ``json.loads`` while ``loads`` runs.
"""

import gc
import json
import math
import struct
import sys
import tracemalloc
import types
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthosym import jsonio
from orthosym.jsonio import PIECE_CHARS, float_array, loads


def identical(got, want) -> bool:
    """Equal values of equal types, floats compared bit for bit; a float64
    array ``got`` stands for the list of numbers ``want``."""
    if type(got) is np.ndarray:
        return type(want) is list and as_floats(got) == as_floats(want)
    if type(got) is not type(want):
        return False
    if type(got) is float:
        return struct.pack("<d", got) == struct.pack("<d", want)
    if type(got) is list:
        return len(got) == len(want) and all(map(identical, got, want))
    if type(got) is dict:
        return list(got) == list(want) and all(identical(got[k], want[k]) for k in got)
    return got == want


def as_floats(value):
    """The bytes of ``float_array(value)``, or its exception and message."""
    kind, out = outcome(float_array, value, "re")
    return kind, out.tobytes() if kind == "value" else out


def outcome(parse, *args):
    try:
        return "value", parse(*args)
    except (ValueError, RecursionError, OverflowError) as exc:
        return type(exc), str(exc)


def json_of_text(data: bytes):
    """The oracle: ``json.loads`` of the text that ``data`` decodes to."""
    return json.loads(data.decode())


def encoded(doc) -> bytes:
    return doc if type(doc) is bytes else doc.encode()


def assert_same(doc):
    """``loads`` of the document ``doc``, given as text or as bytes, gives the
    outcome of ``json.loads`` on its text."""
    data = encoded(doc)
    got, want = outcome(loads, data), outcome(json_of_text, data)
    assert got[0] == want[0]
    if want[0] == "value":
        assert identical(got[1], want[1])
    else:
        assert got[1] == want[1]


def refuse(*args, **kwargs):
    raise AssertionError("the document was read by json.loads")


def read_without_json(doc):
    """``loads(doc)`` with ``json.loads`` refused: the skeleton path alone."""
    data = encoded(doc)
    with mock.patch.object(json, "loads", refuse):
        return loads(data)


def assert_read_by_json(doc):
    """``loads`` falls back to :mod:`json` on ``doc``."""
    with pytest.raises(AssertionError, match="read by json.loads"):
        read_without_json(doc)


def padded(items) -> str:
    """The texts in ``items`` repeated into one array body past PIECE_CHARS."""
    body = ", ".join(items)
    return ", ".join([body] * (PIECE_CHARS // (len(body) + 2) + 2))


PAD = padded(["0.125", "-3", "6.02214076e-23", "-9.2e18", "1e-300"])
#: PIECE_CHARS + 1 bytes of digits and commas: a span the skeleton cuts.
RUN = ",".join(["7"] * (PIECE_CHARS // 2 + 1))


def assert_read_by_orjson(text, key=None):
    """With no fall-back to :mod:`json`, ``loads`` reads a long flat array of
    numbers, the document or its ``key``, as a float64 array."""
    want = json.loads(text)
    got = read_without_json(text)
    assert type(got if key is None else got[key]) is np.ndarray
    assert identical(got, want)


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
        assert_read_by_orjson(text)

    # the midpoint above the largest double rounds to infinity
    @given(finite.filter(lambda x: x < sys.float_info.max), st.integers(0, 4))
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

    @given(st.lists(st.integers(-(10**308), 10**308), min_size=1, max_size=40))
    def test_integers(self, ns):
        assert_read_by_orjson("[" + padded([str(n) for n in ns] + ["1.0"]) + "]")

    def test_short_arrays_keep_their_ints(self):
        text = "[" + ", ".join(["7", "-0", "2.5"] * 100) + "]"
        assert len(text) < PIECE_CHARS
        assert identical(loads(text.encode()), json.loads(text))
        assert type(loads(text.encode())[0]) is int


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
    '"0.5", 1',
    '{}',
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
    "1" + "0" * 400,
    "6.02214076e23",
    "12345678901234567890",
    "true",
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

    # magnitudes of 2**63 and more: orjson reads integers beyond 64 bits as
    # floats, which a float64 result does not need to tell apart from ints
    @pytest.mark.parametrize(
        "case",
        ["6.02214076e23", "12345678901234567890", "18446744073709551616",
         "-9223372036854775809", "9223372036854775808", "-1e19", "1.7976931348623157e308"],
    )
    def test_large_magnitudes_are_read_by_orjson(self, case):
        assert_read_by_orjson(f"[{PAD}, {case}]")
        assert_read_by_orjson(f"[{case}, {PAD}]")

    # json.loads reads these as inf, nan or a Python int beyond the float range
    @pytest.mark.parametrize("case", ["1e400", "-1e400", "NaN", "Infinity", "1" + "0" * 400])
    def test_non_finite_numbers_fall_back(self, case):
        text = f"[{PAD}, {case}]"
        assert_read_by_json(text)
        assert type(loads(text.encode())) is list
        assert identical(loads(text.encode()), json.loads(text))

    def test_a_non_finite_piece_falls_back(self, monkeypatch):
        # orjson refuses numbers beyond the double range; one that read them
        # as infinity must still not reach the caller
        fake = types.SimpleNamespace(loads=lambda text: [math.inf])
        monkeypatch.setitem(sys.modules, "orjson", fake)
        assert_read_by_json(f"[{PAD}]")

    def test_valid_arrays_on_every_side_of_a_piece_boundary(self):
        for size in range(PIECE_CHARS - 4, PIECE_CHARS + 4):
            ones = 2 - size % 2
            assert_read_by_orjson("[" + "1" * ones + ",1" * ((size - ones) // 2) + ", 2.5]")

    @pytest.mark.parametrize(
        "text",
        [f'{{"rows": [[{PAD}], [{PAD}, 2]], "d": 3}}', f"[[[{PAD}]], [[{PAD}], [1, {PAD}]], []]"],
    )
    def test_rows_of_a_nested_array_are_read_by_orjson(self, text):
        got = read_without_json(text)
        assert identical(got, json.loads(text))
        assert type(got["rows"][0] if type(got) is dict else got[0][0]) is np.ndarray
        assert_same(text)

    def test_empty_arrays(self):
        assert_same("[ ]")
        assert_same("[" + " " * (PIECE_CHARS + 7) + "]")
        assert_same('{"re": [' + "\n" * (2 * PIECE_CHARS) + "], \"im\": [1]}")

    def test_duplicate_keys_keep_the_last(self):
        text = f'{{"re": [{PAD}], "re": [{PAD}, 7]}}'
        assert_same(text)
        assert read_without_json(text)["re"][-1] == 7

    def test_byte_order_mark(self):
        assert_same(f"\ufeff[{PAD}]")
        assert_same(f'\ufeff{{"re": [{PAD}]}}')

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
        assert identical(loads(text.encode()), json.loads(text))
        assert_read_by_json(text)


def picked(texts):
    """One of ``texts``, drawn by index, so that no long text is in a repr."""
    return st.integers(0, len(texts) - 1).map(lambda i: texts[i])


#: Pieces of documents: brackets, braces, quotes and escapes among long runs of numbers,
#: and the marker ``NaN``, its parts and the other constants.
FRAGMENTS = picked(
    ["[", "]", "{", "}", '"', "\\", ",", ":", "1", " ", RUN]
    + ["NaN", "Na", "N", "aN", "-", "Infinity"]
)
#: JSON strings that hold brackets and runs of numbers.
IN_STRING = st.lists(FRAGMENTS, max_size=5).map("".join).map(json.dumps)
SKELETON_VALUES = st.recursive(
    IN_STRING
    | picked([f"[{RUN}]", f"[{PAD}]", "1", "null", "[]", "NaN", "Infinity", "-Infinity"]),
    lambda inner: st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
    | st.lists(st.tuples(IN_STRING, inner), max_size=3).map(
        lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"
    ),
    max_leaves=6,
)
#: Values side by side, or beside a bare fragment, are mostly not JSON.
SKELETON_DOCUMENTS = st.lists(SKELETON_VALUES | FRAGMENTS, min_size=1, max_size=3).map("".join)


class TestSkeleton:
    """A long run of numbers that the skeleton cuts to the marker ``NaN`` where
    the document has no array, or a marker beside other ``NaN`` text: the
    parse never meets the marker as a token, the skeleton holds more ``NaN``
    text than markers, or the parse fails, and :mod:`json` reads the
    document."""

    @pytest.mark.parametrize(
        "text",
        [
            f'"[{RUN}]"',
            f'{{"note": "[{RUN}]", "re": [{PAD}]}}',
            f'["a[{RUN}]b", [{PAD}]]',
            f'{{"[{RUN}]": 1}}',
            f'["\\"[{RUN}]"]',
        ],
    )
    def test_a_run_inside_a_string(self, text):
        assert_same(text)
        assert_read_by_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            f"1[{RUN}]",
            f"[1[{RUN}]]",
            f'{{"a": 1[{RUN}]}}',
            f'{{"a"[{RUN}]}}',
            f"[{RUN}][{RUN}]",
            f"true[{RUN}]",
            f'"s"[{RUN}]',
            f"[{RUN}]]",
        ],
    )
    def test_a_cut_right_after_a_value(self, text):
        assert_same(text)
        with pytest.raises(json.JSONDecodeError):
            loads(text.encode())

    @pytest.mark.parametrize(
        "data",
        [
            b"\xef\xbb\xbf[" + RUN.encode() + b"]",
            b"\xef\xbb\xbf" + f'{{"re": [{PAD}]}}'.encode(),
            b"[" + RUN.encode() + b", \xff]",
            f'{{"re": [{PAD}], "s": "'.encode() + b'\xc3"}',
            f'{{"re": [{PAD}], "s": "\u00e9"}}'.encode(),
            f'{{"s": "\u00e9", "re": [{PAD}]}}'.encode(),
            f"[{PAD}, 1\u0662]".encode(),
            f'{{"d": 1\u0661, "re": [{PAD}]}}'.encode(),
            f'{{"re": [{PAD}], "d": 1\u0661}}'.encode(),
            b"\xff",
        ],
    )
    def test_byte_order_mark_and_utf8(self, data):
        assert_same(data)

    @pytest.mark.parametrize("text", [f'{{"a": NaN, "s": "[{RUN}]"}}', f'["Na[{RUN}]N"]'])
    def test_nan_text_beside_a_marker(self, text):
        assert_same(text)
        assert_read_by_json(text)

    @pytest.mark.parametrize("text", [f"[[{RUN}]NaN]", f"-[{RUN}]"])
    def test_a_marker_that_is_not_a_token(self, text):
        assert_same(text)
        with pytest.raises(json.JSONDecodeError):
            loads(text.encode())

    def test_infinities_beside_a_marker(self):
        text = f"[Infinity, [{RUN}], -Infinity]"
        assert_same(text)
        got = read_without_json(text)
        assert got[0] == math.inf and got[2] == -math.inf
        assert type(got[1]) is np.ndarray

    def test_a_skeleton_that_is_not_ascii(self):
        # the C scanner reads the decoded skeleton, as json.loads reads the text;
        # test_byte_order_mark_and_utf8 keeps json's error for a non-ASCII digit
        assert_read_by_orjson(f'{{"s": "\u00e9", "re": [{PAD}]}}', "re")

    def test_duplicate_keys_with_a_run_in_a_string(self):
        text = f'{{"re": "[{RUN}]", "re": [{PAD}]}}'
        assert_same(text)
        assert_read_by_json(text)

    @given(SKELETON_DOCUMENTS)
    def test_strings_with_brackets_among_number_runs(self, text):
        assert_same(text)


def long_document() -> bytes:
    """A 2 MB operator-like document: one array of 10**5 numbers."""
    return ('{"re": [' + ", ".join(["0.12345678901234568"] * 10**5) + "]}").encode()


class TestReleasesItsInput:
    """With the garbage collector off, ``loads`` leaves no reference to its
    input, and holds less memory than the input while it runs and after."""

    @pytest.mark.parametrize("tail", ["", f', "note": "[{RUN}]"'], ids=["orjson", "json"])
    def test_no_reference_is_left(self, tail):
        data = f'{{"re": [{PAD}]{tail}}}'.encode()
        before = sys.getrefcount(data)
        gc.disable()
        try:
            loads(data)
            assert sys.getrefcount(data) == before
        finally:
            gc.enable()

    def test_memory_after_the_call_is_below_the_input(self):
        gc.disable()
        tracemalloc.start()
        try:
            data = long_document()
            size = len(data)
            value = loads(data)
            del data
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert type(value["re"]) is np.ndarray
        assert current < size

    def test_peak_during_the_call_is_below_the_input(self):
        # no room is held for more numbers than the array has: the peak counts
        # the array as it grows, the pieces and the skeleton, not the input
        data = long_document()
        gc.disable()
        tracemalloc.start()
        try:
            value = loads(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert type(value["re"]) is np.ndarray
        assert peak < len(data)


class TestFloatArray:
    @pytest.mark.parametrize("raw", [[1, 0.5, -2], [], [2**70]])
    def test_accepts_json_numbers(self, raw):
        out = float_array(raw, "re")
        assert out.dtype == np.float64
        assert out.tolist() == [float(x) for x in raw]

    def test_returns_a_float64_array_unchanged(self):
        raw = np.array([1.0, -0.0, 2.5])
        assert float_array(raw, "re") is raw

    @pytest.mark.parametrize(
        "raw",
        [["0.25"], [1.0, False], [None], [True], [[1.0]], [{"a": 1}], {"a": 1}, 0.5, "1", None,
         np.array([1, 2]), np.array([True]), np.array([[1.0]]), np.array(["1.0"])],
    )
    def test_rejects_everything_else(self, raw):
        with pytest.raises(ValueError, match="re must hold JSON numbers only"):
            float_array(raw, "re")

    def test_int_beyond_the_float_range(self):
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            float_array([1.0, 10**400], "re")


def reference_dumps(obj) -> str:
    """An item-by-item renderer of the kinds :func:`jsonio.dumps` renders."""
    if isinstance(obj, dict):
        items = (f"{json.dumps(k)}: {reference_dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(reference_dumps, obj)) + "]"
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist())
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return jsonio.format_float(obj)
    assert isinstance(obj, str)
    return json.dumps(obj)


floats = st.floats(allow_nan=True, allow_infinity=True)
#: Texts that JSON must escape: a quote, a backslash, control and non-ASCII characters.
escaped = st.text(st.sampled_from('"\\\n\x00\x1f\x7f\u00e9\u2028\U0001f600a'), max_size=4)
strings = st.text(max_size=3) | escaped
scalars = (
    finite | st.integers() | st.booleans() | strings | escaped.map(np.str_)
    | floats.map(np.float64)
)
float_lists = st.lists(finite, max_size=20) | st.lists(floats, max_size=20)
arrays = float_lists.map(np.array)
documents = st.recursive(
    # strided views and 2-D arrays besides contiguous 1-D ones
    scalars | float_lists | arrays | arrays.map(lambda a: a[::-2])
    | arrays.map(lambda a: a.reshape(-1, 1)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(strings | escaped.map(np.str_), inner, max_size=4),
    max_leaves=30,
)


class TestDumps:
    @given(documents)
    def test_same_text_or_error_as_item_by_item(self, doc):
        assert outcome(jsonio.dumps, doc) == outcome(reference_dumps, doc)

    @pytest.mark.parametrize(
        "doc, text",
        [
            ([0.1, 1 / 3], "[0.10000000000000001, 0.33333333333333331]"),
            (np.array([[0.5, -0.0], [1e300, 5e-324]]),
             "[[0.5, -0], [1.0000000000000001e+300, 4.9406564584124654e-324]]"),
            ([True, 1, np.float64(0.1), 0.1],
             "[true, 1, 0.10000000000000001, 0.10000000000000001]"),
            ([], "[]"),
            (np.array([]), "[]"),
            ({'a"b\\': ["\n\x00\x1f\x7f\u00e9\U0001f600\u2028", np.str_("x")]},
             r'{"a\"b\\": ["\n\u0000\u001f\u007f\u00e9\ud83d\ude00\u2028", "x"]}'),
        ],
    )
    def test_text(self, doc, text):
        assert jsonio.dumps(doc) == text

    def test_strided_views(self):
        z = np.array([0.1 + 2j, -0.0 - 1e300j, 5e-324 + 0.5j])
        assert not z.real.flags.contiguous
        assert jsonio.dumps({"re": z.real, "im": z.imag}) == (
            '{"re": [0.10000000000000001, -0, 4.9406564584124654e-324], '
            '"im": [2, -1.0000000000000001e+300, 0.5]}'
        )

    @pytest.mark.parametrize(
        "values",
        [[math.nan, 0.5, math.inf], [0.5, math.nan, math.inf], [0.5, -0.0, math.nan]],
        ids=["first", "middle", "last"],
    )
    @pytest.mark.parametrize("kind", [list, np.array])
    def test_first_non_finite_float_is_named(self, values, kind):
        with pytest.raises(ValueError, match=r"^non-finite float nan in data output$"):
            jsonio.dumps({"pi": kind(values)})

    @pytest.mark.parametrize(
        "doc", [np.bool_(True), np.int64(1), None, [0.5, None], (1, 2), {1: 0.5}, np.array(0.5)]
    )
    def test_other_kinds_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            jsonio.dumps(doc)
