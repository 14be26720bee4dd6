"""Command-line front end.

Subcommands cover projector construction, twirling, PPT and bound checks,
region scans, pair reduction, hull vertices, and the dense verification
suite.  Data goes to stdout (or --out where available) with reproducible
formatting; diagnostics go to stderr.  Exit codes: 0 success, 1 failed
verification, 2 argument errors, 3 capacity, 4 domain errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import product

import numpy as np

from .dense import CapacityError, ComplexOperator, DomainError, PSD_TOL
from .jsonio import dumps, float_array, format_float, loads
from .projectors import build_multipartite, multipartite_trace
from .simplex import (
    VERTEX_LABELS,
    FidelityVector,
    _binary_mask,
    _check_state_rows,
    _check_tolerance,
    check_output_budget,
    check_scan_budget,
    check_vertex_budget,
    c_matrix,
    classify_lattice,
    default_grid_resolution,
    hull_vertices,
    intersection_point,
    pt_map_masks,
    pt_map_rows,
    reduce_pair,
    sep_bound_check,
    twirl_coords,
)
from .verify import DEFAULT_SEED, first_failure, run_suite

#: Largest JSON input file read, in bytes.  An operator at the dimension cap
#: MAX_DIM, written with shortest round-trip floats, is about 840 MB.
INPUT_BYTES = 2**30
#: Largest read after the first, which asks for the file's size plus one byte.
READ_PIECE_BYTES = 2**24


def _digit_labels(K: int, digits: str) -> list[str]:
    """All K-digit strings over ``digits`` in rank order: multi-indices or masks."""
    return list(map("".join, product(digits, repeat=K)))


def _parse_alpha(text: str) -> tuple[int, ...]:
    # int() would also read "+1", "01", " 2" and non-ASCII digits
    tokens = text.split(",")
    if any(tok not in ("0", "1", "2") for tok in tokens):
        raise ValueError(f"alpha must be digits 0, 1 or 2 separated by commas, got {text!r}")
    return tuple(map(int, tokens))


def _load_json(path: str) -> dict:
    try:
        doc = loads(_read_input(path))
    except RecursionError:
        raise ValueError(f"input {path} nests JSON too deeply") from None
    if type(doc) is not dict:
        # loads reads a long array of numbers as a float64 array
        kind = "list" if type(doc) is np.ndarray else type(doc).__name__
        raise ValueError(f"input {path} must hold a JSON object, got {kind}")
    return doc


def _read_input(path: str) -> bytes:
    """The bytes of ``path``, at most INPUT_BYTES of them.

    They go to :func:`loads` as they are: it decodes only the document's
    skeleton unless it falls back to :mod:`json`, so a large operator file is
    held once, as bytes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > INPUT_BYTES:
            raise CapacityError(
                f"input file {path} has {size} bytes, over the budget of {INPUT_BYTES}"
            )
        # a pipe reports size 0, so the reads are bounded too; a regular file
        # takes one read, and every read allocates the full size it asks for
        pieces, total, ask = [], 0, size + 1
        while piece := fh.read(ask):
            pieces.append(piece)
            total += len(piece)
            if len(piece) < ask or total > INPUT_BYTES:
                break
            ask = min(READ_PIECE_BYTES, INPUT_BYTES + 1 - total)
    data = b"".join(pieces)
    if len(data) > INPUT_BYTES:
        raise CapacityError(f"input {path} has more bytes than the budget of {INPUT_BYTES}")
    return data


def _load(path: str, reader):
    """``reader`` of the JSON object in ``path``, naming a missing key."""
    doc = _load_json(path)
    try:
        return reader(doc)
    except KeyError as exc:
        raise ValueError(f"input {path} has no key {exc}") from None


def _read_operator(doc: dict) -> ComplexOperator:
    """The operator of a row-major ``{"dim", "shape", "re", "im"}`` document."""
    dim, shape = doc["dim"], doc["shape"]
    # the shape's entries meet ComplexOperator's rule; dim and the list are the file's
    if type(dim) is not int or type(shape) is not list:
        raise ValueError(f"dim must be a JSON integer and shape a list, got {dim!r}, {shape!r}")
    re, im = float_array(doc["re"], "re"), float_array(doc["im"], "im")
    if dim < 1 or re.size != dim * dim or im.size != dim * dim:
        raise ValueError(
            "dim must be positive with dim**2 entries in re and im, "
            f"got dim {dim} with {re.size} and {im.size}"
        )
    matrix = np.empty((dim, dim), dtype=np.complex128)
    matrix.real, matrix.imag = re.reshape(dim, dim), im.reshape(dim, dim)
    return ComplexOperator(matrix, tuple(shape))


def _read_fidelities(doc: dict) -> FidelityVector:
    """The coordinates of a ``{"d", "K", "pi"}`` document."""
    return FidelityVector(doc["d"], doc["K"], float_array(doc["pi"], "pi"))


def _fidelity_doc(f: FidelityVector) -> dict:
    """The ``{"d", "K", "pi"}`` document that :func:`_read_fidelities` reads."""
    return {"d": f.d, "K": f.K, "pi": f.pi}


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_projectors(args) -> int:
    alpha = _parse_alpha(args.alpha)
    trace = multipartite_trace(args.d, alpha)  # checks d: the budget reads a negative d
    # 2 * d**(4 * pairs) floats, the real and imaginary parts
    check_output_budget(
        (2 * args.d**k for k in range(4 * len(alpha) + 1)),
        f"the projector of {len(alpha)} pairs at d={args.d}",
    )
    op = build_multipartite(args.d, args.K, alpha)
    flat = op.matrix.reshape(-1)
    doc = {
        "d": args.d,
        "K": args.K,
        "alpha": list(alpha),
        "trace": str(trace),
        "dim": op.dim,
        "shape": list(op.shape),
        "re": flat.real,
        "im": flat.imag,
    }
    _emit(args, dumps(doc) + "\n")
    return 0


def cmd_twirl(args) -> int:
    f = twirl_coords(_load(args.state, _read_operator), args.d, args.K)
    _emit(args, dumps(_fidelity_doc(f)) + "\n")
    return 0


def cmd_ppt(args) -> int:
    _check_tolerance(args.tol)  # ppt runs its own walk, not ppt_check
    f = _load(args.fid, _read_fidelities)
    single = args.mask is not None
    check_output_budget([(1 if single else 2**f.K - 1) * f.pi.size], f"ppt of K={f.K}")
    bits = _binary_mask(args.mask, f.K) if single else None
    _check_state_rows(f.pi[None], "ppt")
    c = c_matrix(f.d)
    # all masks come from one walk; a lone mask contracts only its own axes
    if single:
        masks, rows = [args.mask], pt_map_rows(f.pi[None], c, bits)
    else:
        masks, rows = _digit_labels(f.K, "01")[1:], pt_map_masks(f.pi[None], c, f.K)[0, 1:]
    bad = rows < -args.tol
    # built only for a violation: at K = 14, one --mask admits 4.8e6 labels
    labels = _digit_labels(f.K, "012") if bad.any() else []
    verdicts = [
        {
            "mask": label,
            "is_ppt": not b.any(),
            "pi": row,
            "violations": [{"alpha": labels[r], "value": row[r]} for r in np.flatnonzero(b)],
        }
        for label, row, b in zip(masks, rows, bad)
    ]
    _emit(args, dumps({"d": f.d, "K": f.K, "tol": args.tol, "verdicts": verdicts}) + "\n")
    return 0


def cmd_sep(args) -> int:
    f = _load(args.fid, _read_fidelities)
    check_output_budget([2 * f.pi.size], f"sep of K={f.K}")  # pi and bound
    result = sep_bound_check(f)
    # the labels live on only in the rows: a label list kept alive through the
    # rendering raised the peak RSS by 4 MB at K = 12
    rows = [
        {"sigma": label, "pi": pi, "bound": bound, "ok": True}
        for label, pi, bound in zip(_digit_labels(f.K, "012"), f.pi, result.bounds)
    ]
    for r in result.violated:
        rows[r]["ok"] = False
    doc = {
        "d": f.d,
        "K": f.K,
        "passes": result.passes,
        "scope": "sufficient" if result.sufficient else "necessary-only",
        "violated": [rows[r]["sigma"] for r in result.violated],
        "coordinates": rows,
    }
    _emit(args, dumps(doc) + "\n")
    return 0


def cmd_scan(args) -> int:
    n = args.grid if args.grid is not None else default_grid_resolution(args.K)
    check_scan_budget(n, args.K)  # checks n before the text table divides by it
    header = (
        [f"pi_{label}" for label in _digit_labels(args.K, "012")]
        + ["sep_bound"]
        + [f"ppt_{label}" for label in _digit_labels(args.K, "01")[1:]]
        + ["class"]
    )
    # every coordinate is c/n with an integer c in 0..n: format the n + 1 values
    # once and look each one up by its composition entry c
    text = np.array([format_float(c / n) for c in range(n + 1)], dtype=object)
    lines = [",".join(header)]
    for comp, ppt, bound_ok in classify_lattice(args.d, args.K, n, args.tol):
        labels = np.where(~ppt.all(axis=1), "NPT", np.where(bound_ok, "bound-pass", "PPT-all"))
        flags = np.where(np.column_stack([bound_ok, ppt]), "1", "0")
        cells = np.column_stack([text[comp], flags, labels])
        lines.extend(map(",".join, cells.tolist()))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_reduce(args) -> int:
    f = _load(args.fid, _read_fidelities)
    _emit(args, dumps(_fidelity_doc(reduce_pair(f, args.pair))) + "\n")
    return 0


def cmd_vertices(args) -> int:
    check_vertex_budget(args.K)
    crossing = intersection_point(args.d)
    # row r of the table is the vertex of the r-th label sequence
    vertices = zip(product(VERTEX_LABELS, repeat=args.K), hull_vertices(args.d, args.K))
    doc = {
        "d": args.d,
        "K": args.K,
        "vertices": [{"pairs": list(labels), "pi": pi} for labels, pi in vertices],
        "intersection": {
            "q": crossing.q,
            "p": crossing.p,
            "coords": crossing.coords,
            "coords_isotropic": crossing.coords_isotropic,
        },
    }
    _emit(args, dumps(doc) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.d is not None or args.K is not None:
        combos = ((args.d if args.d is not None else 2, args.K if args.K is not None else 1),)
        reports = run_suite(seed=args.seed, combos=combos)
    else:
        reports = run_suite(seed=args.seed)
    docs = [
        {"check": r.check, "params": r.params, "max_residual": r.max_residual,
         "tolerance": r.tolerance, "pass": r.passed}
        for r in reports
    ]
    _emit(args, dumps(docs) + "\n")
    failed = first_failure(reports)
    if failed is not None:
        print(
            f"verification failed: {failed.check} {failed.params} "
            f"residual {failed.max_residual:.3e} > tol {failed.tolerance:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthosym",
        description="Invariant-simplex toolkit: projectors, twirling, PPT and "
        "separability analysis, region scans, and dense verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("projectors", help="emit one dense pair projector as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--alpha", required=True, help="comma-separated trinary digits, e.g. 0,2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_projectors)

    p = sub.add_parser("twirl", help="project a dense state onto the simplex")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--state", required=True, help="dense operator JSON file")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("ppt", help="partial-transposition positivity verdicts")
    p.add_argument("--fid", required=True, help="fidelity vector JSON file")
    p.add_argument("--mask", help="binary digit string, e.g. 01 (default: all masks)")
    p.add_argument("--tol", type=float, default=PSD_TOL)
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("sep", help="per-coordinate separability bounds")
    p.add_argument("--fid", required=True)
    p.set_defaults(func=cmd_sep)

    p = sub.add_parser("scan", help="classify a lattice over the simplex into CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument(
        "--grid",
        type=int,
        help="lattice resolution n (default: the largest n with <= 1e5 points, at least 1)",
    )
    p.add_argument("--tol", type=float, default=PSD_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reduce", help="sum out one Alice-Bob pair")
    p.add_argument("--fid", required=True)
    p.add_argument("--pair", type=int, required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("vertices", help="hull-generator vertices and line crossing")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--K", type=int, default=1)
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("verify", help="run the dense verification suite")
    p.add_argument("--d", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's names the allocation it could not make; Python's bare one says nothing
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, IndexError, KeyError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _observed() -> bool:
    """Whether a trace or profile function, or a ``sys.monitoring`` tool, is set."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) for i in range(6)))
    )


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and end the process with its exit code.

    Once stdout and stderr are flushed, the process ends with ``os._exit``,
    which skips module teardown (numpy's takes tens of milliseconds) and any
    ``atexit`` handlers that other code registered; this package registers
    none.  Two cases exit through ``sys.exit`` instead, so the interpreter
    reports and tears down as usual: a flush that raises ``OSError`` (a
    closed pipe), and an observed process (coverage, cProfile, a debugger),
    whose reports run at exit.  ``SystemExit`` from argument parsing and
    uncaught exceptions leave before any of this.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started without the fd
                stream.flush()
    except OSError:
        sys.exit(code)
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
