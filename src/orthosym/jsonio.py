"""JSON reading, and deterministic JSON rendering with 17-significant-digit floats.

Python's default float repr is shortest-round-trip; data emitted by the CLI
instead uses a fixed 17-significant-digit form so output is byte-stable and
still losslessly round-trips through a double.

:func:`loads` reads a document from its bytes: the long flat number arrays
of a dense operator with orjson's correctly rounded number parser straight
into float64 arrays, and everything else with the standard library.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np

#: Bytes of one flat number array handed to orjson at a time (arrays
#: shorter than this are read by the standard library).  A piece's bytes and
#: its list are held at once, so the piece size sets the extra memory of a
#: load: on a 26 MB operator file whole-document orjson raised peak RSS by
#: 42%, 1 MiB pieces by 8% and 64 KiB pieces by under 1%.
PIECE_CHARS = 2**16


def _flat_spans(data: bytes) -> list[tuple[int, int]]:
    """The ``(start, end)`` spans between a ``[`` and the next ``]`` that are at
    least PIECE_CHARS bytes long and hold no ``[``: the flat arrays that
    :func:`loads` hands to orjson.

    Such a span starts after the last ``[`` before its ``]``, so one pass over
    the ``]`` finds them all.  A span may also lie inside a JSON string, which
    the parse of the skeleton never reaches, or hold other values than
    numbers, which :func:`_read_numbers` refuses.
    """
    spans, pos = [], 0
    while (end := data.find(b"]", pos)) >= 0:
        start = data.rfind(b"[", pos, end) + 1
        if start and end - start >= PIECE_CHARS:
            spans.append((start, end))
        pos = end + 1
    return spans


def _read_numbers(data: bytes, idx: int, end: int) -> np.ndarray:
    """The flat number array ``data[idx:end]`` as float64, read by orjson.

    The span is split at commas into pieces of about PIECE_CHARS bytes, each
    read by orjson and its numbers written by ``np.fromiter`` into one array
    that grows as it fills: no piece outlives its copy, and no room is held
    for numbers the span does not have.  A piece holding true, false or null,
    an empty piece (a doubled or trailing comma), a piece with a brace or a
    quote, a piece orjson refuses (non-ASCII bytes among them) or a
    non-finite value raises ValueError.
    """
    import orjson

    def pieces(idx):
        while idx <= end:
            cut = data.find(b",", idx + PIECE_CHARS, end)
            cut = end if cut < 0 else cut
            text = data[idx:cut]
            # a span holds no bracket; with no brace or quote either, only
            # true, false and null are not numbers
            if any(c in text for c in b'{"tfn') or not (piece := orjson.loads(b"[" + text + b"]")):
                raise ValueError("not a list of numbers")
            yield piece
            idx = cut + 1

    values = np.fromiter(chain.from_iterable(pieces(idx)), float)
    if not np.isfinite(values).all():
        raise ValueError("a number beyond the float64 range")
    return values


def loads(data: bytes):
    """``json.loads(data.decode())``, with long flat number arrays as float64 arrays.

    A flat array of finite JSON numbers, at least PIECE_CHARS bytes long,
    comes back as ``np.array(value, dtype=float)``; every other value, and
    every exception and message, is that of ``json.loads``.  Each long array,
    brackets included, is cut to the marker ``NaN`` in a skeleton that the
    standard library's C scanner parses; its ``parse_constant`` hook reads
    the k-th ``NaN`` as the k-th array's bytes with orjson, so the input is
    not decoded whole.  A JSON ``NaN`` is delimited: if the skeleton holds no
    other ``NaN`` text and the parse met every marker, the k-th call was the
    k-th marker.  Otherwise ``json.loads`` reads the decoded input, as it does
    when there is no long array and when the skeleton parse raises (malformed
    JSON, a piece it refuses, bytes that are not UTF-8, deep nesting, no
    orjson); all its arrays come back as lists.
    """
    if spans := _flat_spans(data):
        # the bytes around the arrays and their brackets, joined by markers
        edges = [0, *(i for start, end in spans for i in (start - 1, end + 1)), len(data)]
        skeleton = b"NaN".join(data[a:b] for a, b in zip(edges[::2], edges[1::2]))
        pending = iter(spans)

        def constant(name):
            return _read_numbers(data, *next(pending)) if name == "NaN" else float(name)

        try:
            if skeleton.count(b"NaN") == len(spans):
                value = json.JSONDecoder(parse_constant=constant).decode(skeleton.decode())
                if next(pending, None) is None:
                    return value
        except (ValueError, RecursionError, ImportError):
            pass
    return json.loads(data.decode())


def float_array(raw, name: str) -> np.ndarray:
    """``raw`` as a float64 array: a 1-D float64 array from :func:`loads` as it
    is, or a list of JSON numbers (ValueError otherwise: numpy would read
    numeric strings, booleans and null as numbers).
    """
    if type(raw) is np.ndarray and raw.dtype == np.float64 and raw.ndim == 1:
        return raw
    if type(raw) is not list or not set(map(type, raw)) <= {int, float}:
        raise ValueError(f"{name} must hold JSON numbers only, not booleans, strings or null")
    return np.array(raw, dtype=float)


#: The 17-significant-digit text of a float, with no finiteness check.
_float_text = "{:.17g}".format


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} in data output")
    return _float_text(x)


def dumps(obj) -> str:
    """JSON text of ``obj``, with every float in 17 significant digits."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    # no value passes two of these tests, so the most frequent come first
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        # a list of finite floats is rendered at once; anything else item by
        # item, so that format_float names the first non-finite float
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            return "[" + ", ".join(map(_float_text, obj)) + "]"
        return "[" + ", ".join(map(dumps, obj)) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")
