"""Traced in-process run of one orthosym CLI invocation.

Wraps, from outside the package, every public function of the layer modules
(plus ``cli._load_json``, ``cli._emit`` and the ``cmd_*`` handlers) and
counts the constructions of ``ComplexOperator`` and ``FidelityVector``, then
runs ``orthosym.cli.main(argv)`` with stdout sent to a file::

    python3 perfbench/traced.py --stdout out.txt -- verify --d 2 --K 1

orthosym must be importable (``PYTHONPATH=src``).  The last line printed is
one JSON object: the CLI's exit code, the per-layer metrics named in
``PER_LAYER`` and the span table.  Spans are aggregated per (parent, name)
into call count, total and self seconds as they close, so millions of calls
cost memory for only a few hundred rows.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "simplex", "projectors", "dense", "jsonio", "verify")
#: Private cli helpers traced as layer boundaries besides the public names.
CLI_BOUNDARIES = ("_load_json", "_emit")

#: metric -> (unit, kind, target).  ``self``/``total``/``calls`` aggregate the
#: spans whose name is ``target`` (a trailing ``*`` matches a prefix);
#: ``count`` reads a counter; ``distinct`` is distinct build_multipartite
#: arguments over calls.
PER_LAYER = {
    "cli.load.s": ("s", "self", "cli._load_json"),
    "cli.emit.s": ("s", "self", "cli._emit"),
    "cli.cmd.self_s": ("s", "self", "cli.cmd_*"),
    "cli.out_bytes": ("bytes", "count", "cli.out_bytes"),
    "simplex.grid_points.s": ("s", "self", "simplex.grid_points"),
    "simplex.grid_points.calls": ("count", "calls", "simplex.grid_points"),
    "simplex.ppt_check.s": ("s", "self", "simplex.ppt_check"),
    "simplex.ppt_check.calls": ("count", "calls", "simplex.ppt_check"),
    "simplex.sep_bound_check.s": ("s", "self", "simplex.sep_bound_check"),
    "simplex.sep_bound_check.calls": ("count", "calls", "simplex.sep_bound_check"),
    "simplex.c_matrix.calls": ("count", "calls", "simplex.c_matrix"),
    "simplex.coordinate_bounds.calls": ("count", "calls", "simplex.coordinate_bounds"),
    "simplex.FidelityVector.calls": ("count", "count", "simplex.FidelityVector.calls"),
    "simplex.pt_map.s": ("s", "self", "simplex.pt_map"),
    "simplex.pt_map.calls": ("count", "calls", "simplex.pt_map"),
    "simplex.pt_map.coords": ("count", "count", "simplex.pt_map.coords"),
    "simplex.twirl_coords.s": ("s", "self", "simplex.twirl_coords"),
    "simplex.reconstruct.s": ("s", "self", "simplex.reconstruct"),
    "simplex.reconstruct.calls": ("count", "calls", "simplex.reconstruct"),
    "projectors.projector_family.s": ("s", "self", "projectors.projector_family"),
    "projectors.projector_family.calls": ("count", "calls", "projectors.projector_family"),
    "projectors.build_multipartite.s": ("s", "self", "projectors.build_multipartite"),
    "projectors.build_multipartite.calls": ("count", "calls", "projectors.build_multipartite"),
    "projectors.build_multipartite.distinct_frac": ("ratio", "distinct", "projectors.build_multipartite"),
    "projectors.permute_subsystems.s": ("s", "self", "projectors.permute_subsystems"),
    "projectors.multi_index_digits.s": ("s", "self", "projectors.multi_index_digits"),
    "projectors.multi_index_digits.calls": ("count", "calls", "projectors.multi_index_digits"),
    "dense.min_eigenvalue.s": ("s", "self", "dense.min_eigenvalue"),
    "dense.min_eigenvalue.calls": ("count", "calls", "dense.min_eigenvalue"),
    "dense.operator_bytes": ("bytes", "count", "dense.operator_bytes"),
    "dense.kron.s": ("s", "self", "dense.kron"),
    "dense.kron.calls": ("count", "calls", "dense.kron"),
    "dense.partial_transpose.s": ("s", "self", "dense.partial_transpose"),
    "dense.partial_trace.s": ("s", "self", "dense.partial_trace"),
    "jsonio.format_float.s": ("s", "self", "jsonio.format_float"),
    "jsonio.format_float.calls": ("count", "calls", "jsonio.format_float"),
    "jsonio.dumps.s": ("s", "self", "jsonio.dumps"),
    "verify.c_matrix.s": ("s", "total", "verify.verify_c_matrix"),
    "verify.coplanarity.s": ("s", "total", "verify.verify_coplanarity"),
    "verify.resolution.s": ("s", "total", "verify.verify_resolution"),
    "verify.invariance.s": ("s", "total", "verify.verify_invariance"),
    "verify.pt_consistency.s": ("s", "total", "verify.verify_pt_consistency"),
    "verify.product_fidelities.s": ("s", "total", "verify.verify_product_fidelities"),
    "verify.reduction.s": ("s", "total", "verify.verify_reduction"),
}


class Tracer:
    """Span stack plus per-(parent, name) aggregates and plain counters."""

    def __init__(self) -> None:
        self.stack = [["<root>", 0.0]]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.multipartite_keys: set = set()

    def _close(self, frame: list, t0: float, calls: int) -> None:
        total = perf_counter() - t0
        self.stack.pop()
        parent = self.stack[-1]
        parent[1] += total
        rec = self.spans.setdefault((parent[0], frame[0]), [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += total - frame[1]

    def wrap(self, name: str, fn, hook=None):
        """A stand-in for ``fn`` that records one span per call.

        A generator function gets one span per resumption, so the time spent
        producing items is charged to it and the consumer's time is not; it
        counts as one call.
        """
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls = 1
                while True:
                    frame = [name, 0.0]
                    self.stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, t0, calls)
                    calls = 0
                    yield item

            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, t0, 1)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Patch every layer function wherever a layer module bound it."""
        counts = self.counts
        hooks = {
            "simplex.pt_map": lambda f, mask: counts.update({"simplex.pt_map.coords": f.pi.size}),
            "projectors.build_multipartite": lambda d, K, alpha: self.multipartite_keys.add(
                (d, K, tuple(int(g) for g in alpha))
            ),
            "cli._emit": lambda args, text: counts.update({"cli.out_bytes": len(text.encode())}),
        }
        modules = [importlib.import_module(f"orthosym.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or (layer == "cli" and attr in CLI_BOUNDARIES)
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, hooks.get(name))
        for mod in modules + [importlib.import_module("orthosym")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

        dense, simplex = modules[LAYERS.index("dense")], modules[LAYERS.index("simplex")]
        operator_init = dense.ComplexOperator.__post_init__
        fidelity_init = simplex.FidelityVector.__post_init__

        def count_operator(op) -> None:
            operator_init(op)
            counts["dense.ComplexOperator.calls"] += 1
            counts["dense.operator_bytes"] += op.matrix.shape[0] ** 2 * 16

        def count_fidelity(f) -> None:
            fidelity_init(f)
            counts["simplex.FidelityVector.calls"] += 1

        dense.ComplexOperator.__post_init__ = count_operator
        simplex.FidelityVector.__post_init__ = count_fidelity

    def _matching(self, target: str):
        if target.endswith("*"):
            return [rec for (_, name), rec in self.spans.items() if name.startswith(target[:-1])]
        return [rec for (_, name), rec in self.spans.items() if name == target]

    def metric(self, kind: str, target: str) -> float:
        if kind == "count":
            return self.counts[target]
        recs = self._matching(target)
        if kind == "calls":
            return sum(rec[0] for rec in recs)
        if kind == "total":
            return sum((rec[1] for rec in recs), 0.0)
        if kind == "self":
            return sum((rec[2] for rec in recs), 0.0)
        # distinct: distinct argument keys over calls; no calls wasted nothing
        calls = sum(rec[0] for rec in recs)
        return len(self.multipartite_keys) / calls if calls else 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description="traced in-process orthosym run")
    parser.add_argument("--stdout", required=True, help="file receiving the CLI's stdout")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- followed by CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    tracer.install()
    from orthosym import cli

    with open(args.stdout, "w") as out, contextlib.redirect_stdout(out):
        t0 = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - t0
    result = {
        "exit": code,
        "main_s": wall,
        "metrics": {m: tracer.metric(kind, target) for m, (_, kind, target) in PER_LAYER.items()},
        "spans": [[p, n, *rec] for (p, n), rec in tracer.spans.items()],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
