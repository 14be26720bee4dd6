"""JSON reading, and deterministic JSON rendering with 17-significant-digit floats.

Python's default float repr is shortest-round-trip; data emitted by the CLI
instead uses a fixed 17-significant-digit form so output is byte-stable and
still losslessly round-trips through a double.

:func:`loads` reads the long flat number arrays of a dense operator with
orjson's correctly rounded number parser and everything else with the
standard library, and returns exactly what :func:`json.loads` returns.
"""

from __future__ import annotations

import json
import json.decoder
import json.scanner
import math

import numpy as np

#: Characters of one flat number array handed to orjson at a time (arrays
#: shorter than this are read by the standard library).  A piece's text and
#: its list are held at once, so the piece size sets the extra memory of a
#: load: on a 26 MB operator file whole-document orjson raised peak RSS by
#: 42%, 1 MiB pieces by 8% and 64 KiB pieces by under 1%.
PIECE_CHARS = 2**16


def _parse_array(s_and_end, scan_once):
    """``json.decoder.JSONArray``, with long flat number arrays read by orjson.

    A flat array has no bracket, brace or quote before its first ``]``.  It is
    split at commas into pieces of about PIECE_CHARS characters, and each piece
    must read as a non-empty list of ints and floats strictly inside
    (-2**63, 2**63): an empty piece is a doubled or trailing comma, and orjson
    turns integers beyond 64 bits into floats.  Anything else raises
    ValueError, and :func:`loads` then reads the whole text with :mod:`json`.
    """
    s, idx = s_and_end
    end = s.find("]", idx)
    if end - idx < PIECE_CHARS or any(s.find(c, idx, end) >= 0 for c in '[{"'):
        return json.decoder.JSONArray(s_and_end, scan_once)
    import orjson

    values: list = []
    while True:
        cut = s.find(",", idx + PIECE_CHARS, end)
        piece = orjson.loads("[" + s[idx : end if cut < 0 else cut] + "]")
        if not piece or not set(map(type, piece)) <= {int, float}:
            raise ValueError("not a list of numbers")
        if not (-(2**63) < min(piece) and max(piece) < 2**63):
            raise ValueError("a number beyond 64-bit integers")
        values += piece
        if cut < 0:
            return values, end + 1
        idx = cut + 1


class _Decoder(json.JSONDecoder):
    """The default decoder on the pure-Python scanner, with :func:`_parse_array`."""

    def __init__(self) -> None:
        super().__init__()
        self.parse_array = _parse_array
        self.scan_once = json.scanner.py_make_scanner(self)


def loads(text: str):
    """``json.loads(text)``: the same value, or the same exception and message.

    ASCII text is first read by :class:`_Decoder`.  ``json.loads`` reads the
    text instead when it is not ASCII (the pure-Python scanner's ``\\d`` also
    matches non-ASCII digits), or when the decoder raises: on malformed JSON,
    on a piece orjson refuses or reads differently, on nesting deeper than the
    pure-Python scanner's recursion allows, or when orjson is missing.
    """
    if text.isascii():
        try:
            return _Decoder().decode(text)
        except (ValueError, RecursionError, ImportError):
            pass
    return json.loads(text)


def float_array(raw, name: str) -> np.ndarray:
    """The JSON list ``raw`` as a float64 array.

    Raises ValueError unless ``raw`` is a list of JSON numbers: numpy would
    otherwise read numeric strings, booleans and null as numbers.
    """
    if type(raw) is not list or not set(map(type, raw)) <= {int, float}:
        raise ValueError(f"{name} must hold JSON numbers only, not booleans, strings or null")
    return np.array(raw, dtype=float)


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} in data output")
    return format(x, ".17g")


def _render(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _render(value, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    out: list = []
    _render(obj, out)
    return "".join(out)
