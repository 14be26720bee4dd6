"""Command-line front end.

Subcommands cover projector construction, twirling, PPT and bound checks,
region scans, pair reduction, hull vertices, and the dense verification
suite.  Data goes to stdout (or --out where available) with reproducible
formatting; diagnostics go to stderr.  Exit codes: 0 success, 1 failed
verification, 2 argument errors, 3 capacity, 4 domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import product

import numpy as np

from .dense import CapacityError, ComplexOperator, DomainError, PSD_TOL
from .jsonio import dumps, format_float, loads
from .projectors import build_multipartite, multipartite_trace
from .simplex import (
    FidelityVector,
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


def _digit_labels(K: int, digits: str) -> list[str]:
    """All K-digit strings over ``digits`` in rank order: multi-indices or masks."""
    return list(map("".join, product(digits, repeat=K)))


def _parse_mask(text: str, K: int) -> tuple[int, ...]:
    if len(text) != K or any(ch not in "01" for ch in text):
        raise ValueError(f"mask must be {K} binary digits, got {text!r}")
    return tuple(int(ch) for ch in text)


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


def _read_input(path: str) -> str:
    """The text of ``path``, at most INPUT_BYTES bytes of UTF-8.

    Only the text is returned, so the bytes are freed before the JSON is parsed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > INPUT_BYTES:
            raise CapacityError(
                f"input file {path} has {size} bytes, over the budget of {INPUT_BYTES}"
            )
        # a pipe reports size 0, so the read itself is bounded too
        data = fh.read(INPUT_BYTES + 1)
    if len(data) > INPUT_BYTES:
        raise CapacityError(f"input {path} has more bytes than the budget of {INPUT_BYTES}")
    return data.decode()


def _load(cls, path: str):
    """``cls.from_json`` of the JSON object in ``path``, naming a missing key."""
    doc = _load_json(path)
    try:
        return cls.from_json(doc)
    except KeyError as exc:
        raise ValueError(f"input {path} has no key {exc}") from None


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_projectors(args) -> int:
    alpha = tuple(int(tok) for tok in args.alpha.split(","))
    # 2 * d**(4 * pairs) floats, the real and imaginary parts
    check_output_budget(
        (2 * args.d**k for k in range(4 * len(alpha) + 1)),
        f"the projector of {len(alpha)} pairs at d={args.d}",
    )
    op = build_multipartite(args.d, args.K, alpha)
    doc = {
        "d": args.d,
        "K": args.K,
        "alpha": list(alpha),
        "trace": str(multipartite_trace(args.d, alpha)),
    }
    doc.update(op.to_json())
    _emit(args, dumps(doc) + "\n")
    return 0


def cmd_twirl(args) -> int:
    f = twirl_coords(_load(ComplexOperator, args.state), args.d, args.K)
    _emit(args, dumps(f.to_json()) + "\n")
    return 0


def cmd_ppt(args) -> int:
    f = _load(FidelityVector, args.fid)
    single = args.mask is not None
    check_output_budget([(1 if single else 2**f.K - 1) * f.pi.size], f"ppt of K={f.K}")
    c = c_matrix(f.d)
    # all masks come from one walk; a lone mask contracts only its own axes
    if single:
        masks, rows = [args.mask], pt_map_rows(f.pi[None], c, _parse_mask(args.mask, f.K))
    else:
        masks, rows = _digit_labels(f.K, "01")[1:], pt_map_masks(f.pi[None], c, f.K)[0, 1:]
    if not f.is_state():
        raise DomainError("ppt requires state-valued coordinates")
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
    f = _load(FidelityVector, args.fid)
    check_output_budget([2 * f.pi.size], f"sep of K={f.K}")  # pi and bound
    result = sep_bound_check(f)
    violated = ["".join(map(str, a)) for a in result.violated]
    failed = set(violated)
    rows = [
        {
            "sigma": label,
            "pi": float(f.pi[rank]),
            "bound": float(result.bounds[rank]),
            "ok": label not in failed,
        }
        for rank, label in enumerate(_digit_labels(f.K, "012"))
    ]
    doc = {
        "d": f.d,
        "K": f.K,
        "passes": result.passes,
        "scope": "sufficient" if result.sufficient else "necessary-only",
        "violated": violated,
        "coordinates": rows,
    }
    _emit(args, dumps(doc) + "\n")
    return 0


def cmd_scan(args) -> int:
    n = args.grid if args.grid else default_grid_resolution(args.K)
    check_scan_budget(n, args.K)
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
    f = _load(FidelityVector, args.fid)
    _emit(args, dumps(reduce_pair(f, args.pair).to_json()) + "\n")
    return 0


def cmd_vertices(args) -> int:
    check_vertex_budget(args.K)
    crossing = intersection_point(args.d)
    doc = {
        "d": args.d,
        "K": args.K,
        "vertices": [
            {"pairs": list(labels), "pi": f.pi}
            for labels, f in hull_vertices(args.d, args.K)
        ],
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
    _emit(args, dumps([r.to_json() for r in reports]) + "\n")
    failed = first_failure(reports)
    if failed is not None:
        print(
            f"verification failed: {failed.check} {failed.params} "
            f"residual {failed.max_residual:.3e} > tol {failed.tolerance:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("must be a finite number >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthosym",
        description="Invariant-simplex toolkit: projectors, twirling, PPT and "
        "separability analysis, region scans, and dense verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("projectors", help="emit one dense pair projector as JSON")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--K", type=_positive_int, required=True)
    p.add_argument("--alpha", required=True, help="comma-separated trinary digits, e.g. 0,2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_projectors)

    p = sub.add_parser("twirl", help="project a dense state onto the simplex")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--K", type=_positive_int, required=True)
    p.add_argument("--state", required=True, help="dense operator JSON file")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("ppt", help="partial-transposition positivity verdicts")
    p.add_argument("--fid", required=True, help="fidelity vector JSON file")
    p.add_argument("--mask", help="binary digit string, e.g. 01 (default: all masks)")
    p.add_argument("--tol", type=_tolerance, default=PSD_TOL)
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("sep", help="per-coordinate separability bounds")
    p.add_argument("--fid", required=True)
    p.set_defaults(func=cmd_sep)

    p = sub.add_parser("scan", help="classify a lattice over the simplex into CSV")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--K", type=_positive_int, required=True)
    p.add_argument(
        "--grid",
        type=_positive_int,
        help="lattice resolution n (default: the largest n with <= 1e5 points, at least 1)",
    )
    p.add_argument("--tol", type=_tolerance, default=PSD_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reduce", help="sum out one Alice-Bob pair")
    p.add_argument("--fid", required=True)
    p.add_argument("--pair", type=int, required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("vertices", help="hull-generator vertices and line crossing")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--K", type=_positive_int, default=1)
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("verify", help="run the dense verification suite")
    p.add_argument("--d", type=_positive_int)
    p.add_argument("--K", type=_positive_int)
    p.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, IndexError, KeyError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
