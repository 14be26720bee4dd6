"""JSON reading, and deterministic JSON rendering with 17-significant-digit floats.

Python's default float repr is shortest-round-trip; data emitted by the CLI
instead uses a fixed 17-significant-digit form so output is byte-stable and
still losslessly round-trips through a double.

:func:`loads` reads the long flat number arrays of a dense operator with
orjson's correctly rounded number parser straight into float64 arrays, and
everything else with the standard library.
"""

from __future__ import annotations

import json
import json.decoder
import json.scanner
import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

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
    split at commas into pieces of about PIECE_CHARS characters, each read by
    orjson and converted to float64 at once, and comes back as one float64
    array.  A piece holding true, false or null, an empty piece (a doubled or
    trailing comma), a piece orjson refuses or a non-finite value raises
    ValueError, and :func:`loads` then reads the whole text with :mod:`json`.
    """
    s, idx = s_and_end
    end = s.find("]", idx)
    if end - idx < PIECE_CHARS or any(s.find(c, idx, end) >= 0 for c in '[{"'):
        return json.decoder.JSONArray(s_and_end, scan_once)
    import orjson

    pieces = []
    while idx <= end:
        cut = s.find(",", idx + PIECE_CHARS, end)
        cut = end if cut < 0 else cut
        text = s[idx:cut]
        # with no bracket, brace or quote, only true, false and null are not numbers
        if any(c in text for c in "tfn") or not (piece := orjson.loads("[" + text + "]")):
            raise ValueError("not a list of numbers")
        pieces.append(np.array(piece, dtype=float))
        idx = cut + 1
    values = np.concatenate(pieces)
    if not np.isfinite(values).all():
        raise ValueError("a number beyond the float64 range")
    return values, end + 1


class _Decoder(json.JSONDecoder):
    """The default decoder on the pure-Python scanner, with :func:`_parse_array`."""

    def __init__(self) -> None:
        super().__init__()
        self.parse_array = _parse_array
        self.scan_once = json.scanner.py_make_scanner(self)


def loads(text: str):
    """``json.loads(text)``, with long flat number arrays as float64 arrays.

    A flat array of finite JSON numbers, at least PIECE_CHARS characters long,
    comes back as ``np.array(value, dtype=float)``; every other value, and
    every exception and message, is that of ``json.loads``.  ``json.loads``
    reads the text when :class:`_Decoder` raises (on malformed JSON, on a
    piece it refuses, on nesting deeper than the pure-Python scanner's
    recursion allows, or when orjson is missing) and when the text is not
    ASCII (the pure-Python scanner's ``\\d`` also matches non-ASCII digits).
    """
    if text.isascii():
        try:
            return _Decoder().decode(text)
        except (ValueError, RecursionError, ImportError):
            pass
    return json.loads(text)


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
