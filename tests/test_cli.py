"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from orthosym import (
    MAX_DIM,
    PSD_TOL,
    DomainError,
    FidelityVector,
    all_masks,
    all_multi_indices,
    build_multipartite,
    check_scan_budget,
    cli,
    ppt_check,
    random_orthogonal_rows,
    sep_bound_check,
    simplex_grid,
)
from orthosym import projectors as projectors_module
from orthosym import simplex as simplex_module
from orthosym import verify as verify_module
from orthosym.cli import main
from orthosym.jsonio import PIECE_CHARS, dumps, format_float


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(unbuffered=None):
    """The environment of a child process that imports this checkout's orthosym;
    ``unbuffered`` sets (True) or removes (False) PYTHONUNBUFFERED."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def wishart_doc(d, K):
    """Operator JSON of a seeded Wishart state G G^+ / tr, as json.dumps writes it."""
    dim = d ** (2 * K)
    rng = np.random.default_rng([d, K, 2026])
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    return operator_doc(rho, [d] * (2 * K))


def operator_doc(matrix, shape):
    """The row-major ``{"dim", "shape", "re", "im"}`` JSON form of a square matrix."""
    flat = np.asarray(matrix, dtype=np.complex128).reshape(-1)
    return {"dim": len(matrix), "shape": list(shape), "re": flat.real.tolist(),
            "im": flat.imag.tolist()}


def write_fid(tmp_path, name, d, K, pi):
    path = tmp_path / name
    path.write_text(json.dumps({"d": d, "K": K, "pi": list(pi)}))
    return str(path)


def seeded_k4_point():
    """A seeded d=3, K=4 state point, the input of the pinned sep and reduce digests."""
    return np.random.default_rng([3, 4, 2026]).dirichlet(np.ones(3**4))


class TestVertices:
    def test_d2_intersection_values(self, capsys):
        code, out, _ = run(capsys, "vertices", "--d", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["intersection"]["q"] == pytest.approx(1 / 3, abs=1e-15)
        assert doc["intersection"]["p"] == pytest.approx(2 / 9, abs=1e-15)
        # 17-significant-digit rendering of 1/3
        assert '"q": 0.33333333333333331' in out
        assert '"p": 0.22222222222222221' in out
        assert len(doc["vertices"]) == 4

    def test_k2_has_16_vertices(self, capsys):
        code, out, _ = run(capsys, "vertices", "--d", "3", "--K", "2")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["vertices"]) == 16
        assert all(len(v["pi"]) == 9 for v in doc["vertices"])

    @pytest.mark.parametrize("K", [7, 8, 1000])
    def test_over_budget_exits_3_before_any_build(self, capsys, monkeypatch, K):
        def no_build(*args):
            raise AssertionError("a hull vertex was built before the budget check")

        monkeypatch.setattr(cli, "hull_vertices", no_build)
        code, out, err = run(capsys, "vertices", "--d", "2", "--K", str(K))
        assert code == 3
        assert "output budget" in err
        assert out == ""


class TestProjectorsAndTwirl:
    def test_projectors_metadata(self, capsys, tmp_path):
        out_file = tmp_path / "pi.json"
        code, _, _ = run(
            capsys, "projectors", "--d", "2", "--K", "2", "--alpha", "0,2",
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["trace"] == "2"
        assert doc["alpha"] == [0, 2]
        assert doc["dim"] == 16
        assert doc["shape"] == [2, 2, 2, 2]
        assert len(doc["re"]) == 256

    def test_projector_output_is_read_back(self, capsys):
        code, out, _ = run(capsys, "projectors", "--d", "2", "--K", "2", "--alpha", "0,2")
        assert code == 0
        back = cli._read_operator(json.loads(out))
        assert np.array_equal(back.matrix, build_multipartite(2, 2, (0, 2)).matrix)
        assert back.shape == (2, 2, 2, 2)

    # int() reads the signed, zero-padded, spaced and Arabic-Indic forms as digits
    @pytest.mark.parametrize(
        "alpha", ["", "0,,1", "0,2,", "+1", "01", " 2", "0, 2", "\u0661", "3", "1.0", "0;2"]
    )
    def test_malformed_alpha_exits_2(self, capsys, alpha):
        code, out, err = run(capsys, "projectors", "--d", "2", "--K", "2", "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err == f"error: alpha must be digits 0, 1 or 2 separated by commas, got {alpha!r}\n"

    def test_projector_feeds_twirl(self, capsys, tmp_path):
        # the fully entangled projector has unit trace, so its emitted JSON
        # is directly a valid state for the twirl command
        out_file = tmp_path / "p22.json"
        code, _, _ = run(
            capsys, "projectors", "--d", "2", "--K", "1", "--alpha", "2",
            "--out", str(out_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "twirl", "--d", "2", "--K", "1", "--state", str(out_file)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pi"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-13)

    def test_twirl_output_feeds_ppt(self, capsys, tmp_path):
        state = tmp_path / "p22.json"
        run(capsys, "projectors", "--d", "2", "--K", "1", "--alpha", "2",
            "--out", str(state))
        _, out, _ = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(state))
        fid = tmp_path / "fid.json"
        fid.write_text(out)
        code, out2, _ = run(capsys, "ppt", "--fid", str(fid))
        assert code == 0
        assert json.loads(out2)["verdicts"][0]["is_ppt"] is False

    # SHA-256 of twirl stdout for seeded Wishart states written with repr
    # floats, so that any change in how the state file is read fails here.
    # (2, 2) holds arrays shorter than jsonio.PIECE_CHARS; the other two are
    # read in several pieces
    @pytest.mark.parametrize(
        "d, K, digest",
        [
            (2, 2, "4239e916e3499de8ec2d987dd6cfae35a6901501064024d1382d1e197881e72e"),
            (2, 3, "90b70521b749f54ae5c5b804205c75e72f79dd1116f057d8b497696ca2a952eb"),
            (3, 2, "18cfbd732208374a11656f26dbf92815966c1858457f4a1bb9b6a7e0d505d71a"),
        ],
    )
    def test_pinned_twirl_digest(self, capsys, tmp_path, d, K, digest):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(wishart_doc(d, K)))
        code, out, _ = run(capsys, "twirl", "--d", str(d), "--K", str(K), "--state", str(state))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_large_magnitudes_are_read_without_json(self, capsys, tmp_path, monkeypatch):
        # entries of 2**63 and more, a float and a 20-digit integer, in arrays
        # long enough to be read in pieces: no such operator is a state, so
        # the twirl exits 4 on both paths, after reading the same matrix
        doc = wishart_doc(2, 3)
        doc["re"][1], doc["im"][2] = 6.02214076e23, 12345678901234567890
        state = tmp_path / "state.json"
        state.write_text(json.dumps(doc))
        argv = ["twirl", "--d", "2", "--K", "3", "--state", str(state)]
        want = run(capsys, *argv), cli._read_operator(json.loads(state.read_text()))

        def refuse(*args, **kwargs):
            raise AssertionError("the operator file was read by json.loads")

        monkeypatch.setattr(json, "loads", refuse)
        got = run(capsys, *argv), cli._read_operator(cli._load_json(str(state)))
        assert got[0] == want[0]
        assert got[0][0] == 4
        assert got[1].matrix.tobytes() == want[1].matrix.tobytes()

    # SHA-256 of the dense JSON outputs, so that any change in how arrays of
    # floats are rendered fails here
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["projectors", "--d", "2", "--K", "2", "--alpha", "0,2"],
                "7de2bc2b7b1660d6c0c3ade08ead81d41cfa6b51ec37114c401529cfb7b2bbe2",
            ),
            (
                ["vertices", "--d", "2", "--K", "3"],
                "550641949a43aa34e473eea31dd987da87a7b4a4fe349d2dacfd94e27116e892",
            ),
            (
                ["vertices", "--d", "3", "--K", "2"],
                "8a9dcdae440acfb59714b96661291bca0aad66dfc6a584ae8d86d9d45d968806",
            ),
        ],
    )
    def test_pinned_dense_json_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_projectors_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, "projectors", "--d", "3", "--K", "4", "--alpha", "0,0,0,0")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "d, K, admitted",
        [(2, 5, True), (3, 3, True), (2, 6, False), (4, 3, False), (8, 2, False), (7, 2, False)],
    )
    def test_projector_output_budget(self, capsys, monkeypatch, d, K, admitted):
        # 2 * d**(4K) floats: d=2, K=5 is 2.1e6, d=7, K=2 is 1.2e7, dimension 4096 3.4e7
        def reached(*args):
            raise DomainError("build reached")

        monkeypatch.setattr(cli, "build_multipartite", reached)
        alpha = ",".join(["0"] * K)
        code, out, err = run(capsys, "projectors", "--d", str(d), "--K", str(K), "--alpha", alpha)
        assert out == ""
        if admitted:
            assert (code, err) == (4, "error: build reached\n")
        else:
            assert code == 3
            assert "output budget" in err

    def test_projector_output_is_two_floats_per_entry(self, capsys, monkeypatch):
        # d=2, K=1: a 4 x 4 matrix, written as 32 floats
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 32)
        code, _, _ = run(capsys, "projectors", "--d", "2", "--K", "1", "--alpha", "2")
        assert code == 0
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 31)
        code, out, err = run(capsys, "projectors", "--d", "2", "--K", "1", "--alpha", "2")
        assert code == 3
        assert out == ""
        assert "output budget" in err

    def test_twirl_domain_error_exit_code(self, capsys, tmp_path):
        state = tmp_path / "bad.json"
        mat = np.eye(4)  # trace 4, not a state
        state.write_text(
            json.dumps(
                {
                    "dim": 4,
                    "shape": [2, 2],
                    "re": [float(x) for x in mat.reshape(-1)],
                    "im": [0.0] * 16,
                }
            )
        )
        code, _, err = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(state))
        assert code == 4
        assert "error" in err


    def test_twirl_nan_state_exit_code(self, capsys, tmp_path):
        state = tmp_path / "nan.json"
        re = [0.25 if i % 5 == 0 else 0.0 for i in range(16)]
        re[1] = float("nan")
        state.write_text(json.dumps({"dim": 4, "shape": [2, 2], "re": re, "im": [0.0] * 16}))
        code, _, err = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(state))
        assert code == 4
        assert "non-finite" in err

    @pytest.mark.parametrize("factor, exit_code", [(0.5, 0), (2.0, 4)])
    def test_twirl_psd_tolerance_boundary(self, capsys, tmp_path, factor, exit_code):
        # d=2, K=1 state with smallest eigenvalue -factor * PSD_TOL
        u = random_orthogonal_rows(4, [11])[0]
        lam = np.array([-factor * PSD_TOL, 0.5, 0.3, 0.2 + factor * PSD_TOL])
        rho = (u * lam) @ u.T
        state = tmp_path / "edge.json"
        state.write_text(json.dumps(operator_doc(rho, (2, 2))))
        code, out, err = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(state))
        assert code == exit_code
        if exit_code:
            assert "positive semidefinite" in err
            assert out == ""
        else:
            assert sum(json.loads(out)["pi"]) == pytest.approx(1.0, abs=1e-15)


class TestPpt:
    def test_entangled_vertex_verdict(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "e2.json", 2, 1, [0.0, 0.0, 1.0])
        code, out, _ = run(capsys, "ppt", "--fid", fid)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["mask"] == "1"
        assert doc["verdicts"][0]["is_ppt"] is False
        assert doc["verdicts"][0]["violations"] == [{"alpha": "1", "value": -0.5}]

    def test_default_runs_all_masks(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        code, out, _ = run(capsys, "ppt", "--fid", fid)
        doc = json.loads(out)
        assert code == 0
        assert [v["mask"] for v in doc["verdicts"]] == ["01", "10", "11"]
        assert all(v["is_ppt"] for v in doc["verdicts"])

    def test_explicit_mask(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        code, out, _ = run(capsys, "ppt", "--fid", fid, "--mask", "10")
        doc = json.loads(out)
        assert code == 0
        assert [v["mask"] for v in doc["verdicts"]] == ["10"]

    def test_bad_mask_is_usage_error(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        code, _, err = run(capsys, "ppt", "--fid", fid, "--mask", "2")
        assert code == 2

    def test_empty_mask_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # an explicit "" is one mask, not all masks: with a budget of one mask's
        # coordinates it still reaches the mask check
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 9)
        self.forbid_transforms(monkeypatch)
        code, out, err = run(capsys, "ppt", "--fid", fid, "--mask", "")
        assert (code, out) == (2, "")
        assert err == "error: mask must be 2 binary digits, got ''\n"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "ppt", "--fid", "/nonexistent/f.json")
        assert code == 2

    def test_non_state_is_domain_error(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "bad.json", 2, 1, [0.9, 0.4, -0.3])
        code, _, _ = run(capsys, "ppt", "--fid", fid)
        assert code == 4

    @pytest.mark.parametrize("mask, coords", [([], 3 * 9), (["--mask", "10"], 9)])
    def test_output_budget_is_masks_times_coordinates(
        self, capsys, tmp_path, monkeypatch, mask, coords
    ):
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", coords)
        code, _, _ = run(capsys, "ppt", "--fid", fid, *mask)
        assert code == 0
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", coords - 1)
        self.forbid_transforms(monkeypatch)
        code, out, err = run(capsys, "ppt", "--fid", fid, *mask)
        assert code == 3
        assert out == ""
        assert "output budget" in err

    @pytest.mark.parametrize("mask, code", [([], 3), (["--mask", "000000001"], 0)])
    def test_k9_all_masks_exit_3_before_any_check(
        self, capsys, tmp_path, monkeypatch, mask, code
    ):
        # 511 masks x 19,683 coordinates = 1.0e7 is over the budget; one mask is not
        fid = write_fid(tmp_path, "u.json", 2, 9, [3.0**-9] * 3**9)
        if code:
            self.forbid_transforms(monkeypatch)
        got, out, err = run(capsys, "ppt", "--fid", fid, *mask)
        assert got == code
        if code:
            assert out == ""
            assert "output budget" in err
        else:
            assert json.loads(out)["verdicts"][0]["is_ppt"] is True

    @staticmethod
    def forbid_transforms(monkeypatch):
        def no_check(*args):
            raise AssertionError("ppt started a check before its output budget")

        monkeypatch.setattr(cli, "pt_map_masks", no_check)
        monkeypatch.setattr(cli, "pt_map_rows", no_check)

    # all seven masks of one K=3 vector: at d=2 four masks pass and three fail
    # with violations, at d=3 all fail
    @pytest.mark.parametrize(
        "d, digest",
        [
            (2, "06dc5f670d3df60079766e7012ea664c00cee0a4d11285c3e6c5a3ee9bdec2e9"),
            (3, "ef546dbc7fd4a0f42ac34d8a332f0cc599de0851091ad2eaed4cb646c5db4322"),
        ],
    )
    def test_pinned_ppt_digest(self, capsys, tmp_path, d, digest):
        weights = [11 + (7 * k) % 11 for k in range(27)]
        fid = write_fid(tmp_path, "fid.json", d, 3, [w / sum(weights) for w in weights])
        code, out, _ = run(capsys, "ppt", "--fid", fid)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def reference_ppt(f, masks, tol):
    """``ppt`` stdout rendered mask by mask from ``ppt_check``."""
    verdicts = []
    for mask in masks:
        verdict = ppt_check(f, mask, tol)
        verdicts.append(
            {
                "mask": "".join(map(str, mask)),
                "is_ppt": verdict.is_ppt,
                "pi": verdict.transformed.pi,
                "violations": [
                    {"alpha": "".join(map(str, all_multi_indices(f.K)[r])), "value": value}
                    for r, value in verdict.violations
                ],
            }
        )
    return dumps({"d": f.d, "K": f.K, "tol": tol, "verdicts": verdicts}) + "\n"


class TestPptWalk:
    @pytest.mark.parametrize("tol", ["0", "1e-9", "0.05"])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_output_equals_ppt_check_reference(self, capsys, tmp_path, d, K, tol):
        pi = np.random.default_rng([d, K, 17]).dirichlet(np.ones(3**K))
        fid = write_fid(tmp_path, "fid.json", d, K, pi)
        f = FidelityVector(d, K, pi)
        code, out, _ = run(capsys, "ppt", "--fid", fid, "--tol", tol)
        assert code == 0
        assert out == reference_ppt(f, all_masks(K), float(tol))
        for mask in all_masks(K):
            text = "".join(map(str, mask))
            code, out, _ = run(capsys, "ppt", "--fid", fid, "--tol", tol, "--mask", text)
            assert code == 0
            assert out == reference_ppt(f, [mask], float(tol))

    def test_reference_cases_hold_violations(self):
        # the comparisons above render violations at every d and tol (K = 1 has none)
        for d, K in product([2, 3, 7], [2, 3]):
            f = FidelityVector(d, K, np.random.default_rng([d, K, 17]).dirichlet(np.ones(3**K)))
            assert any(ppt_check(f, mask, 0.05).violations for mask in all_masks(K))

    def test_labels_follow_rank_order(self):
        for K in (1, 2, 5):
            indices = cli._digit_labels(K, "012")
            assert indices == ["".join(map(str, a)) for a in all_multi_indices(K)]
            assert cli._digit_labels(K, "01")[1:] == ["".join(map(str, m)) for m in all_masks(K)]

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_all_masks_cost_one_contraction_each(self, capsys, tmp_path, monkeypatch, K):
        # one single-axis contraction per nonzero mask: 2**K - 1, where a
        # contraction of every masked axis per mask would make K * 2**(K - 1)
        calls = []
        contract_axes = simplex_module._contract_axes

        def recording(x, m, axes):
            calls.append(list(axes))
            return contract_axes(x, m, calls[-1])

        fid = write_fid(tmp_path, "u.json", 3, K, [3.0**-K] * 3**K)
        monkeypatch.setattr(simplex_module, "_contract_axes", recording)
        assert run(capsys, "ppt", "--fid", fid)[0] == 0
        assert len(calls) == 2**K - 1
        assert all(len(axes) == 1 for axes in calls)
        calls.clear()
        assert run(capsys, "ppt", "--fid", fid, "--mask", "1" * K)[0] == 0
        assert calls == [list(range(1, K + 1))]  # a lone mask contracts its own axes

    def test_pinned_k6_digest(self, capsys, tmp_path):
        # all 63 masks of a seeded d=3, K=6 point, 18,607 violations in all
        pi = np.random.default_rng([3, 6, 2026]).dirichlet(np.ones(3**6))
        fid = write_fid(tmp_path, "fid.json", 3, 6, pi)
        code, out, _ = run(capsys, "ppt", "--fid", fid)
        assert code == 0
        digest = "0088181da1391e11da5c577880230c42c538231a8d280dcb40b3b56593cedb4f"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSep:
    def test_symmetric_vertex_passes(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "v.json", 2, 1, [1.0, 0.0, 0.0])
        code, out, _ = run(capsys, "sep", "--fid", fid)
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"] is True
        assert doc["scope"] == "sufficient"
        assert [row["bound"] for row in doc["coordinates"]] == [1.0, 0.5, 0.5]

    def test_k2_scope_is_necessary_only(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        _, out, _ = run(capsys, "sep", "--fid", fid)
        doc = json.loads(out)
        assert doc["scope"] == "necessary-only"
        assert doc["passes"] is True

    def test_entangled_vertex_fails(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "e2.json", 2, 1, [0.0, 0.0, 1.0])
        _, out, _ = run(capsys, "sep", "--fid", fid)
        doc = json.loads(out)
        assert doc["passes"] is False
        assert doc["violated"] == ["2"]

    def test_ok_is_false_exactly_on_violated(self, capsys, tmp_path):
        # d=2, K=2: the ceiling of 12, 22 and 11 is 1/4; the first two are over
        # it and 11 sits on it exactly
        pi = np.zeros(9)
        pi[[5, 8, 4]] = 0.3, 0.3, 0.25
        pi[0] = 1.0 - pi.sum()
        fid = write_fid(tmp_path, "k2.json", 2, 2, pi)
        code, out, _ = run(capsys, "sep", "--fid", fid)
        assert code == 0
        doc = json.loads(out)
        assert doc["violated"] == ["12", "22"]
        assert [row["sigma"] for row in doc["coordinates"] if not row["ok"]] == ["12", "22"]
        for row in doc["coordinates"]:
            assert row["ok"] is (row["sigma"] not in doc["violated"])

    def test_output_budget_is_two_floats_per_coordinate(self, capsys, tmp_path, monkeypatch):
        # d=2, K=2: pi and bound of 9 coordinates, 18 floats
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 18)
        code, _, _ = run(capsys, "sep", "--fid", fid)
        assert code == 0
        monkeypatch.setattr(simplex_module, "SCAN_OUTPUT_COORDS", 17)
        self.forbid_work(monkeypatch)
        code, out, err = run(capsys, "sep", "--fid", fid)
        assert code == 3
        assert out == ""
        assert "output budget" in err

    @pytest.mark.parametrize("K, admitted", [(14, True), (15, False)])
    def test_k15_exits_3_before_any_check(self, capsys, monkeypatch, K, admitted):
        # 2 x 3**14 = 9.6e6 floats fit the budget, 2 x 3**15 = 2.9e7 do not; the
        # coordinates are one broadcast value, so no 3**K array is allocated
        f = SimpleNamespace(d=2, K=K, pi=np.broadcast_to(3.0**-K, (3**K,)))
        monkeypatch.setattr(cli, "_load", lambda path, reader: f)

        def reached(*args):
            raise DomainError("check reached")

        monkeypatch.setattr(cli, "sep_bound_check", reached)
        code, out, err = run(capsys, "sep", "--fid", "unused.json")
        assert out == ""
        if admitted:
            assert (code, err) == (4, "error: check reached\n")
        else:
            assert code == 3
            assert "sep of K=15 exceeds the output budget" in err

    @staticmethod
    def forbid_work(monkeypatch):
        def no_work(*args):
            raise AssertionError("sep started work before its output budget")

        monkeypatch.setattr(cli, "sep_bound_check", no_work)
        monkeypatch.setattr(cli, "_digit_labels", no_work)

    def test_pinned_k4_digest(self, capsys, tmp_path):
        # a seeded d=3, K=4 point over two of its ceilings
        fid = write_fid(tmp_path, "fid.json", 3, 4, seeded_k4_point())
        code, out, _ = run(capsys, "sep", "--fid", fid)
        assert code == 0
        assert len(json.loads(out)["violated"]) == 2
        digest = "24b2d4907ddb674f2bc1aa72431146801d74e39be57a1b6ff2b2dc87ba8eb0f7"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"d": 2.5}, "local dimension must be an integer, got 2.5"),
            ({"K": 1.5}, "pair count must be an integer, got 1.5"),
            ({"d": 2.0}, "local dimension must be an integer, got 2.0"),
            ({"d": "2"}, "local dimension must be an integer, got '2'"),
            ({"K": True}, "pair count must be an integer, got True"),
        ],
    )
    def test_rejects_non_integer_d_and_K(self, capsys, tmp_path, field, message):
        # the file's d and K reach FidelityVector, whose owners state the rule
        doc = {"d": 2, "K": 1, "pi": [1.0, 0.0, 0.0], **field}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sep", "--fid", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestStateValuedInput:
    """ppt and sep on the d = 2, K = 1 vector (0.9, 0.4, -0.3), which is no state."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["ppt"], 4, "error: ppt requires state-valued coordinates\n"),
            (["ppt", "--mask", "1"], 4, "error: ppt requires state-valued coordinates\n"),
            (["ppt", "--mask", "012"], 2, "error: mask must be 1 binary digits, got '012'\n"),
            (["sep"], 4, "error: sep_bound_check requires state-valued coordinates\n"),
        ],
    )
    def test_exit_and_message(self, capsys, tmp_path, argv, code, err):
        fid = write_fid(tmp_path, "bad.json", 2, 1, [0.9, 0.4, -0.3])
        command, *rest = argv
        assert run(capsys, command, "--fid", fid, *rest) == (code, "", err)

    @pytest.mark.parametrize("mask", [[], ["--mask", "1"]])
    def test_ppt_rejects_before_the_walk(self, capsys, tmp_path, monkeypatch, mask):
        def no_walk(*args):
            raise AssertionError("ppt walked the masks of a non-state vector")

        monkeypatch.setattr(cli, "pt_map_masks", no_walk)
        monkeypatch.setattr(cli, "pt_map_rows", no_walk)
        fid = write_fid(tmp_path, "bad.json", 2, 1, [0.9, 0.4, -0.3])
        code, out, err = run(capsys, "ppt", "--fid", fid, *mask)
        assert (code, out, err) == (4, "", "error: ppt requires state-valued coordinates\n")


class TestScan:
    def test_small_scan_layout(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--d", "2", "--K", "1", "--grid", "6",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "pi_0,pi_1,pi_2,sep_bound,ppt_1,class"
        assert len(lines) == 1 + 28  # compositions of 6 into 3 parts
        first = lines[1].split(",")
        assert [float(x) for x in first[:3]] == [0.0, 0.0, 1.0]
        assert first[-1] == "NPT"
        last = lines[-1].split(",")
        assert [float(x) for x in last[:3]] == [1.0, 0.0, 0.0]
        assert last[-1] == "bound-pass"

    def test_k1_classes_match_threshold_structure(self, capsys, tmp_path):
        # at K = 1 passing all transposition tests coincides with passing
        # the bounds, so the middle class never appears
        out_file = tmp_path / "scan.csv"
        run(capsys, "scan", "--d", "2", "--K", "1", "--grid", "8", "--out", str(out_file))
        rows = [line.split(",") for line in out_file.read_text().strip().split("\n")[1:]]
        assert {row[-1] for row in rows} == {"NPT", "bound-pass"}
        for row in rows:
            pi = [float(x) for x in row[:3]]
            expected_sep = pi[1] <= 0.5 and pi[2] <= 0.5
            assert (row[-1] == "bound-pass") == expected_sep

    def test_k2_scan_has_mask_columns(self, capsys, tmp_path):
        out_file = tmp_path / "scan2.csv"
        code, _, _ = run(
            capsys, "scan", "--d", "2", "--K", "2", "--grid", "3",
            "--out", str(out_file),
        )
        assert code == 0
        header = out_file.read_text().split("\n")[0].split(",")
        assert header[:2] == ["pi_00", "pi_01"]
        assert header[-5:] == ["sep_bound", "ppt_01", "ppt_10", "ppt_11", "class"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "scan", "--d", "3", "--K", "1", "--grid", "5", "--out", str(a))
        run(capsys, "scan", "--d", "3", "--K", "1", "--grid", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


    def test_multi_block_scan_matches_row_by_row_rendering(self, capsys, tmp_path, monkeypatch):
        # two 9-coordinate rows per block: 495 points make 248 blocks, the last one short
        monkeypatch.setattr(simplex_module, "SCAN_BLOCK_COORDS", 20)
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--d", "3", "--K", "2", "--grid", "4", "--tol", "0",
            "--out", str(out_file),
        )
        assert code == 0
        masks = all_masks(2)
        header = (
            [f"pi_{''.join(map(str, a))}" for a in all_multi_indices(2)]
            + ["sep_bound"]
            + [f"ppt_{''.join(map(str, m))}" for m in masks]
            + ["class"]
        )
        lines = [",".join(header)]
        for comp in simplex_grid(4, 9):
            f = FidelityVector(3, 2, np.array(comp, dtype=float) / 4)
            ppt = [ppt_check(f, m, 0.0).is_ppt for m in masks]
            bound_ok = sep_bound_check(f).passes
            label = "NPT" if not all(ppt) else ("bound-pass" if bound_ok else "PPT-all")
            lines.append(",".join(
                [format(x, ".17g") for x in f.pi]
                + ["1" if bound_ok else "0"]
                + ["1" if v else "0" for v in ppt]
                + [label]
            ))
        assert out_file.read_text() == "\n".join(lines) + "\n"
        assert len(lines) == 1 + 495

    @pytest.mark.parametrize("argv", [["--K", "11"], ["--K", "2", "--grid", "100000"]])
    def test_over_budget_exits_3_before_any_work(self, capsys, tmp_path, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("scan started work before its budget check")

        monkeypatch.setattr(cli, "classify_lattice", no_work)
        monkeypatch.setattr(cli, "_digit_labels", no_work)
        out_file = tmp_path / "scan.csv"
        code, out, err = run(capsys, "scan", "--d", "2", *argv, "--out", str(out_file))
        assert code == 3
        assert "budget" in err
        assert out == ""
        assert not out_file.exists()

    def test_over_output_budget_exits_3_before_any_work(self, capsys, tmp_path, monkeypatch):
        # 3.1e8 rows: within the arithmetic budget, over the output budget
        def no_work(*args):
            raise AssertionError("scan started work before its budget check")

        monkeypatch.setattr(cli, "classify_lattice", no_work)
        out_file = tmp_path / "scan.csv"
        code, out, err = run(
            capsys, "scan", "--d", "2", "--K", "1", "--grid", "25000", "--out", str(out_file)
        )
        assert code == 3
        assert "output budget" in err
        assert out == ""
        assert not out_file.exists()

    # SHA-256 of the default-tol CSV, so that any change to the bytes of these
    # scans fails here; --tol 0 output is not pinned, because exact integer
    # verdicts are meant to change it
    @pytest.mark.parametrize(
        "d, K, n, digest",
        [
            (2, 2, 8, "6baa6a6f9ce3fbbe32a75aa8ee5c2d00943fdef8972110261b94971523c3cc37"),
            (2, 2, 11, "ca5730bc6bfc5bb0f723e513c25a4af68975234a3bd6018a44c000b1be3dcf25"),
            (3, 2, 6, "373f3b1c6aa92cb2643343645c422cc46214d4aa1e45884786bb363d7144e6d3"),
            (2, 3, 3, "ddd26132b2117b2ec66b384b18a8a01a27bad13a617b7c38e6954a696adbd4f0"),
            (4, 2, 5, "e111bb199382bfb4ebe91eb0ef8effbcb99911d6abd79da4510f594c597d39ec"),
            (2, 1, 40, "c85bb900a886bdf2296f54f061fcb40700015754a2dfb0ea664a007a4e960e5d"),
        ],
    )
    def test_pinned_csv_digest(self, capsys, tmp_path, d, K, n, digest):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--d", str(d), "--K", str(K), "--grid", str(n),
            "--out", str(out_file),
        )
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    def test_coordinate_text_where_truncation_would_be_off_by_one(self, capsys, tmp_path):
        # (1/49) * 49 rounds to 0.9999999999999999: a truncated lookup index
        # would print 0 there
        assert int((1 / 49) * 49) == 0
        out_file = tmp_path / "scan.csv"
        run(capsys, "scan", "--d", "2", "--K", "1", "--grid", "49", "--out", str(out_file))
        rows = [line.split(",")[:3] for line in out_file.read_text().split("\n")[1:-1]]
        assert rows == [[format_float(c / 49) for c in comp] for comp in simplex_grid(49, 3)]

    def test_coordinate_table_is_exact_up_to_largest_k1_grid(self):
        # the scan renders pi = c/n as text[c], text[c] = format_float(c / n);
        # check every c <= n of every grid the budget admits at K = 1, the
        # largest n of any K.  The double c/n of Python equals the one numpy
        # computes for pi, so the text is equal; the strings themselves are
        # compared up to n = 200 (all of them take ~8 s)
        n_max = 1
        while True:
            try:
                check_scan_budget(n_max + 1, 1)
            except simplex_module.CapacityError:
                break
            n_max += 1
        assert n_max > 2_500
        for n in range(1, n_max + 1):
            c = np.arange(n + 1)
            pi = c / n
            assert pi.tolist() == [k / n for k in range(n + 1)]
            if n <= 200:
                text = [format_float(k / n) for k in range(n + 1)]
                assert text == [format_float(x) for x in pi]


class TestInputBudget:
    @pytest.mark.parametrize("command", ["twirl", "ppt", "sep", "reduce"])
    def test_oversized_input_exits_3_before_parsing(self, capsys, tmp_path, monkeypatch, command):
        if command == "twirl":
            path = tmp_path / "state.json"
            path.write_text(json.dumps(
                {"dim": 4, "shape": [2, 2], "re": (np.eye(4) / 4).reshape(-1).tolist(),
                 "im": [0.0] * 16}
            ))
            argv = ["twirl", "--d", "2", "--K", "1", "--state", str(path)]
        else:
            path = tmp_path / "fid.json"
            path.write_text(json.dumps({"d": 2, "K": 2, "pi": [1 / 9] * 9}))
            argv = [command, "--fid", str(path)] + (["--pair", "0"] if command == "reduce" else [])
        size = path.stat().st_size
        monkeypatch.setattr(cli, "INPUT_BYTES", size)
        code, _, _ = run(capsys, *argv)
        assert code == 0

        def no_parse(*args, **kwargs):
            raise AssertionError("an input file over budget was parsed")

        monkeypatch.setattr(cli, "INPUT_BYTES", size - 1)
        monkeypatch.setattr(cli, "loads", no_parse)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"has {size} bytes" in err and "budget" in err

    def test_budget_admits_an_operator_at_the_dimension_cap(self):
        # MAX_DIM**2 entries in each of "re" and "im"; the longest repr of a
        # double, -2.2250738585072014e-308, has 24 characters, plus ", "
        assert len(repr(-2.2250738585072014e-308)) == 24
        assert 2 * MAX_DIM**2 * 26 + 1000 < cli.INPUT_BYTES

    @pytest.mark.parametrize(
        "exc, err",
        [(MemoryError(), "error: out of memory\n"),
         (MemoryError("Unable to allocate 95.7 MiB"),
          "error: out of memory: Unable to allocate 95.7 MiB\n")],
    )
    def test_out_of_memory_exits_3(self, capsys, tmp_path, monkeypatch, exc, err):
        # exit 1 means a failed verification, so running out of memory must not end there
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"d": 2, "K": 2, "pi": [1 / 9] * 9}))

        def exhausted(data):
            raise exc

        monkeypatch.setattr(cli, "loads", exhausted)
        assert run(capsys, "sep", "--fid", str(path)) == (3, "", err)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sep", "--fid", str(tmp_path / "none.json"))
        assert code == 2
        assert "No such file" in err

    def test_piped_input_is_bounded(self, capsys, tmp_path, monkeypatch):
        # a pipe reports size 0, so only the bounded read can reject it
        text = json.dumps({"d": 2, "K": 1, "pi": [1.0, 0.0, 0.0]})
        fifo = tmp_path / "fid.fifo"
        for budget, code in ((len(text), 0), (len(text) - 1, 3)):
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
            writer.start()
            monkeypatch.setattr(cli, "INPUT_BYTES", budget)
            got, out, err = run(capsys, "sep", "--fid", str(fifo))
            writer.join(timeout=10)
            assert not writer.is_alive()
            fifo.unlink()
            assert got == code
        assert out == ""
        assert "budget" in err

    def test_piped_input_is_read_in_pieces(self, capsys, tmp_path, monkeypatch):
        text = json.dumps({"d": 2, "K": 1, "pi": [1.0, 0.0, 0.0]})
        _, want, _ = run(capsys, "sep", "--fid", write_fid(tmp_path, "fid.json", 2, 1, [1, 0, 0]))
        fifo = tmp_path / "fid.fifo"
        monkeypatch.setattr(cli, "READ_PIECE_BYTES", 5)
        for budget, code in ((len(text), 0), (len(text) - 1, 3), (len(text) + 3, 0)):
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
            writer.start()
            monkeypatch.setattr(cli, "INPUT_BYTES", budget)
            got, out, _ = run(capsys, "sep", "--fid", str(fifo))
            writer.join(timeout=10)
            assert not writer.is_alive()
            fifo.unlink()
            assert (got, out) == ((0, want) if code == 0 else (3, ""))

    def test_read_allocates_about_the_file_size(self, tmp_path):
        # every read allocates the full size it asks for, before it reads
        path = tmp_path / "fid.json"
        path.write_bytes(b" " * 10**6)
        tracemalloc.start()
        try:
            data = cli._read_input(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data == b" " * 10**6
        assert peak < 4 * 10**6


class TestFileFormats:
    """The readers of the operator and fidelity documents, and the fidelity writer."""

    def test_operator_roundtrip(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        back = cli._read_operator(json.loads(dumps(operator_doc(g, (2, 3)))))
        assert np.array_equal(back.matrix, g)
        assert back.shape == (2, 3)

    @pytest.mark.parametrize("dim, n_re, n_im", [(-1, 1, 1), (0, 0, 0), (2, 4, 3), (2, 9, 9)])
    def test_read_operator_rejects_a_dim_that_misses_the_entries(self, dim, n_re, n_im):
        doc = {"dim": dim, "shape": [2], "re": [0.0] * n_re, "im": [0.0] * n_im}
        with pytest.raises(ValueError, match=f"got dim {dim} with {n_re} and {n_im}"):
            cli._read_operator(doc)

    def test_read_operator_keeps_each_part_bit_for_bit(self):
        # re + 1j * im would turn these -0.0 parts into 0.0, and the infinite
        # imaginary part into a NaN real part
        re, im = [-0.0, 0.5, -0.0, 1.0], [-0.0, -0.0, 0.25, float("inf")]
        m = cli._read_operator({"dim": 2, "shape": [2], "re": re, "im": im}).matrix
        assert m.real.tobytes() == np.array(re).tobytes()
        assert m.imag.tobytes() == np.array(im).tobytes()

    def test_fidelity_roundtrip(self):
        f = FidelityVector(3, 2, np.random.default_rng(5).dirichlet(np.ones(9)))
        back = cli._read_fidelities(json.loads(dumps(cli._fidelity_doc(f))))
        assert back.d == 3 and back.K == 2
        assert np.array_equal(back.pi, f.pi)


class TestMalformedInput:
    # the long array is read as a float64 array, and still named a list
    @pytest.mark.parametrize("doc", [[1.0, 0.0, 0.0], "pi", [0.5] * 30000])
    @pytest.mark.parametrize("command", ["ppt", "sep", "reduce"])
    def test_document_must_be_an_object(self, capsys, tmp_path, command, doc):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--fid", str(path)] + (["--pair", "0"] if command == "reduce" else [])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.endswith(f"must hold a JSON object, got {type(doc).__name__}\n")

    @pytest.mark.parametrize("command", ["ppt", "sep", "reduce"])
    def test_missing_pi_is_named(self, capsys, tmp_path, command):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"d": 2, "K": 1}))
        argv = [command, "--fid", str(path)] + (["--pair", "0"] if command == "reduce" else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: input {path} has no key 'pi'\n"

    @pytest.mark.parametrize("command", ["ppt", "sep", "reduce"])
    def test_truncated_json_is_usage_error(self, capsys, tmp_path, command):
        # json.JSONDecodeError is a ValueError, so it exits 2 with the parser's message
        path = tmp_path / "fid.json"
        path.write_text('{"d": 2, "K": 1, "pi": [0.9, 0.4')
        argv = [command, "--fid", str(path)] + (["--pair", "0"] if command == "reduce" else [])
        err = "error: Expecting ',' delimiter: line 1 column 33 (char 32)\n"
        assert run(capsys, *argv) == (2, "", err)

    def test_twirl_missing_im_is_named(self, capsys, tmp_path):
        doc = operator_doc(np.eye(4) / 4, (2, 2))
        del doc["im"]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: input {path} has no key 'im'\n"

    # the dimension is checked first, so a wrong one is still named as such
    @pytest.mark.parametrize(
        "shape, d, K, message",
        [
            ([4], 2, 1, "state shape [4] is not 2 factors of 2"),
            ([4, 4], 2, 2, "state shape [4, 4] is not 4 factors of 2"),
            ([2, 2, 4], 2, 2, "state shape [2, 2, 4] is not 4 factors of 2"),
            ([4], 3, 1, "state dimension 4 is not 3^(2*1)"),
        ],
    )
    def test_twirl_shape_must_be_2K_factors_of_d(self, capsys, tmp_path, shape, d, K, message):
        dim = int(np.prod(shape))
        doc = operator_doc(np.eye(dim) / dim, shape)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "twirl", "--d", str(d), "--K", str(K), "--state", str(path))
        assert (code, out) == (4, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"shape": 5}, "dim must be a JSON integer and shape a list, got 4, 5"),
            (
                {"dim": 4.7, "shape": [2.9, "2"]},
                "dim must be a JSON integer and shape a list, got 4.7, [2.9, '2']",
            ),
            ({"dim": 4.0}, "dim must be a JSON integer and shape a list, got 4.0, [2, 2]"),
            ({"shape": [2, True]}, "local dimensions must be integers, got (2, True)"),
            ({"shape": [2.0, 2]}, "local dimensions must be integers, got (2.0, 2)"),
        ],
    )
    def test_twirl_dim_and_shape_must_be_integers(self, capsys, tmp_path, field, message):
        # the reader owns dim and the list; the shape's entries meet ComplexOperator's rule
        doc = {**operator_doc(np.eye(4) / 4, (2, 2)), **field}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # numpy would read "0.25" and false as numbers, turn null into NaN (exit 4)
    # and fail on a dict with a TypeError traceback
    @pytest.mark.parametrize(
        "field",
        [{"re": "0.25"}, {"re": False}, {"re": None}, {"im": False}, {"im": [0.0]}, "dict"],
    )
    def test_twirl_operator_entries_must_be_numbers(self, capsys, tmp_path, field):
        doc = operator_doc(np.eye(4) / 4, (2, 2))
        if field == "dict":
            doc["re"] = {"a": 1}
        else:
            (key, value), = field.items()
            doc[key][5 if key == "re" else 1] = value  # 5: a diagonal 0.25, 1: a zero
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "JSON numbers" in err

    # the same checks on an array long enough to be read in pieces
    @pytest.mark.parametrize(
        "value, message",
        [
            (10**400, "error: int too large to convert to float\n"),
            (True, "error: re must hold JSON numbers only, not booleans, strings or null\n"),
            (None, "error: re must hold JSON numbers only, not booleans, strings or null\n"),
            ("0.25", "error: re must hold JSON numbers only, not booleans, strings or null\n"),
        ],
    )
    def test_long_operator_entries_must_be_finite_numbers(self, capsys, tmp_path, value, message):
        doc = wishart_doc(2, 3)
        doc["re"][3000] = value  # in the second piece
        assert len(json.dumps(doc["re"][:3000])) > PIECE_CHARS
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "twirl", "--d", "2", "--K", "3", "--state", str(path))
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "pi, code",
        [
            (["1", "0", "0"], 2),
            ([True, False, False], 2),
            ([1.0, None, 0.0], 2),
            ([1, 0, 0], 0),
            ([float("inf"), 0.0, 0.0], 4),
        ],
    )
    def test_pi_must_hold_numbers(self, capsys, tmp_path, pi, code):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"d": 2, "K": 1, "pi": pi}))
        got, out, err = run(capsys, "ppt", "--fid", str(path))
        assert got == code
        assert (out == "") is (code != 0)
        if code == 2:
            assert "JSON numbers" in err

    @pytest.mark.parametrize("argv", [("sep",), ("ppt",), ("reduce", "--pair", "0")])
    @pytest.mark.parametrize("pi", [[1] + [False] * 8, [False, 1.0] + [0] * 7])
    def test_pi_booleans_mixed_with_numbers_exit_2(self, capsys, tmp_path, argv, pi):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"d": 2, "K": 2, "pi": pi}))
        code, out, err = run(capsys, argv[0], "--fid", str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert "JSON numbers" in err


DEPTH = 5000  # past the recursion limit of every JSON parser on the path
DEEP_DOCUMENTS = {
    "deep_arrays": "[" * DEPTH + "]" * DEPTH,
    "deep_object": '{"a": ' * DEPTH + "1" + "}" * DEPTH,
    "deep_pi": '{"d": 2, "K": 1, "pi": ' + "[" * DEPTH + "]" * DEPTH + "}",
}
# input files no command admits: deep, undecodable or out of range
MALFORMED_DOCUMENTS = {
    **DEEP_DOCUMENTS,
    "empty": "",
    "non_utf8": b"\xff\xfe{\x80}",
    "top_level_list": "[1, 0, 0]",
    "top_level_string": '"pi"',
    "nan_pi": '{"d": 2, "K": 1, "pi": [NaN, 0, 1]}',
    "long_d": '{"d": ' + "7" * 5000 + ', "K": 1, "pi": [1, 0, 0]}',
    "overflow_pi": '{"d": 2, "K": 1, "pi": [1e999, 0, 0]}',
    "true_pi": '{"d": 2, "K": 1, "pi": [true, 0, 0]}',
    **{
        f"dim_{dim}": json.dumps({**operator_doc(np.eye(4) / 4, (2, 2)), "dim": dim})
        for dim in (-1, 0, 3)
    },
    "huge_K": '{"d": 2, "K": 1000000000000, "pi": [1, 0, 0]}',
}
INPUT_COMMANDS = [
    ("ppt", "--fid"),
    ("sep", "--fid"),
    ("reduce", "--pair", "0", "--fid"),
    ("twirl", "--d", "2", "--K", "1", "--state"),
]


class TestExitCodeContract:
    """Exit 1 means failed verification only: a bad input file exits 2, 3 or 4."""

    @pytest.mark.parametrize("argv", INPUT_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", list(MALFORMED_DOCUMENTS))
    def test_malformed_input_is_an_argument_capacity_or_domain_error(
        self, capsys, tmp_path, name, argv
    ):
        text = MALFORMED_DOCUMENTS[name]
        path = tmp_path / f"{name}.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out, err = run(capsys, *argv, str(path))
        assert code in (2, 3, 4)
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("dim", [-1, 0, 3])
    def test_malformed_dim_is_named(self, capsys, tmp_path, dim):
        # each file holds 16 entries in re and im: dim**2 is 1, 0 and 9
        path = tmp_path / "state.json"
        path.write_text(MALFORMED_DOCUMENTS[f"dim_{dim}"])
        code, out, err = run(capsys, "twirl", "--d", "2", "--K", "1", "--state", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: dim must be positive with dim**2 entries in re and im, "
            f"got dim {dim} with 16 and 16\n"
        )

    @pytest.mark.parametrize("argv", INPUT_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", list(DEEP_DOCUMENTS))
    def test_deep_nesting_is_named(self, capsys, tmp_path, name, argv):
        path = tmp_path / f"{name}.json"
        path.write_text(DEEP_DOCUMENTS[name])
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: input {path} nests JSON too deeply\n"


class TestReduce:
    def test_pinned_k4_digest(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "fid.json", 3, 4, seeded_k4_point())
        code, out, _ = run(capsys, "reduce", "--fid", fid, "--pair", "2")
        assert code == 0
        digest = "2b01ea597fe710f375894cdd163333dab848370a8238615c8d01b8563d433afa"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_uniform_reduction(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        code, out, _ = run(capsys, "reduce", "--fid", fid, "--pair", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["K"] == 1
        assert doc["pi"] == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_reduce_output_feeds_sep(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "u.json", 2, 2, [1 / 9] * 9)
        _, out, _ = run(capsys, "reduce", "--fid", fid, "--pair", "0")
        reduced = tmp_path / "r.json"
        reduced.write_text(out)
        code, out2, _ = run(capsys, "sep", "--fid", str(reduced))
        assert code == 0
        assert json.loads(out2)["passes"] is True

    def test_non_finite_coordinates_exit_4(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "nan.json", 2, 2, [float("nan")] + [0.125] * 8)
        code, out, err = run(capsys, "reduce", "--fid", fid, "--pair", "0")
        assert code == 4
        assert out == ""
        assert "finite" in err

    def test_reduce_k1_is_domain_error(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "k1.json", 2, 1, [1.0, 0.0, 0.0])
        code, _, _ = run(capsys, "reduce", "--fid", fid, "--pair", "0")
        assert code == 4


class TestVerify:
    def test_single_combo_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--d", "2", "--K", "1")
        assert code == 0
        reports = json.loads(out)
        assert all(r["pass"] for r in reports)
        assert {r["check"] for r in reports} == {
            "c_matrix",
            "coplanarity",
            "resolution",
            "invariance",
            "pt_consistency",
            "product_fidelities",
        }
        assert err == ""

    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "2", "--K", "1")
        assert code == 0
        doc = json.loads(out)[0]
        assert doc["check"] == "c_matrix"
        assert set(doc) == {"check", "params", "max_residual", "tolerance", "pass"}
        assert doc["pass"] is True

    @pytest.mark.parametrize("d, K", [(2, 5), (2, 6), (4, 3), (7, 2)])
    def test_over_family_budget_exits_3_before_any_build(self, capsys, monkeypatch, d, K):
        # dense families of 4.1 GB, 196 GB and 7.2 GB; at d=7, K=2 one family
        # (830 MB) fits and the two copies of pt_consistency do not
        def no_build(*args, **kwargs):
            raise AssertionError("a check ran before the budget check")

        monkeypatch.setattr(projectors_module, "_family_rows", no_build)
        monkeypatch.setattr(verify_module, "verify_resolution", no_build)
        monkeypatch.setattr(verify_module, "verify_invariance", no_build)
        code, out, err = run(capsys, "verify", "--d", str(d), "--K", str(K))
        assert code == 3
        assert "2 x the dense projector family" in err and "budget" in err
        assert out == ""

    def test_seed_flag_changes_residuals(self, capsys):
        _, out_a, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "1")
        _, out_b, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "2")
        _, out_a2, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "1")
        assert out_a == out_a2
        assert out_a != out_b

    def test_seed_env_var(self, capsys, monkeypatch):
        # the output depends on the arguments alone: the variable is not read
        monkeypatch.setenv("ORTHOSYM_SEED", "77")
        _, out_env, _ = run(capsys, "verify", "--d", "2", "--K", "1")
        _, out_default, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "8191")
        assert out_env == out_default
        assert '"seed": 8191' in out_env

    # SHA-256 of verify stdout, so that any change in the floats of the dense
    # checks or of the coordinate kernels they compare against fails here
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "4992d10b6bf60d6b5dcbc6f75eb590bcb4dbb44c7fcc8e56301ab62690fab376"),
            (
                ["--d", "2", "--K", "2", "--seed", "5"],
                "ba0e49b6cea1b38eea3471f33260727fcb57de44a0645df0df327dcac3c53c61",
            ),
            (
                # 2**128 + 3: five uint32 words, more than SeedSequence's pool of four
                ["--d", "2", "--K", "1", "--seed", "340282366920938463463374607431768211459"],
                "4b0401e7f83daa7796f65925d493fe465d7803173d17c6723ee91bc40efb680f",
            ),
        ],
    )
    def test_pinned_verify_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "-5")
        assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, got -5\n")
        assert run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "0")[0] == 0


def assert_dumps_kind(value):
    """Fail unless ``value`` is built of the kinds :func:`dumps` renders: dicts
    with str keys; lists of dicts, strs or ints; str, int, bool and float
    (``numpy.float64`` among them); and 1-D float64 arrays."""
    if type(value) is dict:
        assert set(map(type, value)) <= {str}, value
        for item in value.values():
            assert_dumps_kind(item)
    elif type(value) is list:
        assert set(map(type, value)) <= {dict, str, int}, value
        for item in value:
            assert_dumps_kind(item)
    elif type(value) is np.ndarray:
        assert (value.dtype, value.ndim) == (np.float64, 1), value
    else:
        assert type(value) in (str, int, bool, float, np.float64), type(value)


class TestDumpsTraffic:
    """Every command that writes JSON hands dumps only the kinds it renders, so
    a command that sends another kind fails here and not in a user's run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["projectors", "--d", "2", "--K", "2", "--alpha", "0,2"],
            ["twirl", "--d", "2", "--K", "1", "--state", "{state}"],
            ["ppt", "--fid", "{fid}"],
            ["ppt", "--mask", "10", "--fid", "{fid}"],
            ["sep", "--fid", "{fid}"],
            ["reduce", "--pair", "0", "--fid", "{fid}"],
            ["vertices", "--d", "2", "--K", "2"],
            ["verify", "--d", "2", "--K", "1"],
        ],
        ids=["projectors", "twirl", "ppt", "ppt-mask", "sep", "reduce", "vertices", "verify"],
    )
    def test_commands_send_only_rendered_kinds(self, capsys, tmp_path, monkeypatch, argv):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(wishart_doc(2, 1)))
        # the entangled corner violates PPT under every mask: violations are sent
        pi = np.full(9, 0.01)
        pi[-1] = 0.92
        files = {"state": str(state), "fid": write_fid(tmp_path, "fid.json", 2, 2, pi)}
        sent = []

        def walked(obj):
            sent.append(obj)
            assert_dumps_kind(obj)
            return dumps(obj)

        monkeypatch.setattr(cli, "dumps", walked)
        code, out, _ = run(capsys, *(a.format(**files) for a in argv))
        assert (code, len(sent)) == (0, 1)
        if argv[0] == "ppt":
            assert all(v["violations"] for v in json.loads(out)["verdicts"])


class TestArgumentHandling:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
    @pytest.mark.parametrize("command", ["ppt", "ppt-mask", "scan"])
    def test_bad_tol_rejected(self, capsys, tmp_path, command, tol, shown):
        # a nan tol passed the entangled P+ as PPT: ppt checks it before reading the file
        fid = write_fid(tmp_path, "u.json", 2, 1, [1 / 3] * 3)
        argv = {
            "ppt": ["ppt", "--fid", fid],
            "ppt-mask": ["ppt", "--mask", "1", "--fid", fid],
            "scan": ["scan", "--d", "2", "--K", "1", "--grid", "4", "--out", str(tmp_path / "s")],
        }[command]
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err == f"error: tolerance must be a finite number >= 0, got {shown}\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_nonpositive_grid_rejected(self, capsys, tmp_path, grid):
        # checked before the coordinate text divides by n: --grid 0 is no default grid
        out_path = tmp_path / "x"
        argv = ["scan", "--d", "2", "--K", "1", "--grid", grid, "--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: grid resolution must be >= 1, got {grid}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command", ["scan", "ppt", "sep", "reduce", "vertices", "projectors", "verify", "twirl"]
    )
    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_d1_is_a_domain_error(self, capsys, tmp_path, command, d):
        # argparse reads only an int: every d below 2 meets the one owner, on the
        # command line and in a file alike
        fid = ["--fid", write_fid(tmp_path, "d1.json", int(d), 1, [0.2, 0.3, 0.5])]
        # a 4 x 4 state, of no dimension d**(2K): the local dimension is checked first
        state = tmp_path / "state.json"
        state.write_text(json.dumps(operator_doc(np.eye(4) / 4, [2, 2])))
        argv = {
            "twirl": ["--d", d, "--K", "1", "--state", str(state)],
            "scan": ["--d", d, "--K", "1", "--out", str(tmp_path / "s.csv")],
            "ppt": fid,
            "sep": fid,
            "reduce": fid + ["--pair", "0"],
            "vertices": ["--d", d],
            # four pairs: at d = -3 the output budget's d**16 is over its bound
            "projectors": ["--d", d, "--K", "4", "--alpha", "0,0,0,0"],
            "verify": ["--d", d],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out, err) == (4, "", "error: local dimension must be >= 2\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("K", ["0", "-1"])
    @pytest.mark.parametrize("command", ["scan", "vertices", "projectors", "twirl", "verify"])
    def test_nonpositive_K_is_an_argument_error(self, capsys, tmp_path, command, K):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(operator_doc(np.eye(4) / 4, [2, 2])))
        argv = {
            "scan": ["--d", "2", "--K", K, "--out", str(tmp_path / "s.csv")],
            "vertices": ["--d", "2", "--K", K],
            "projectors": ["--d", "2", "--K", K, "--alpha", "0"],
            "twirl": ["--d", "2", "--K", K, "--state", str(state)],
            "verify": ["--K", K],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out, err) == (2, "", "error: pair count must be >= 1\n")
        assert not (tmp_path / "s.csv").exists()


HUGE_K = str(10**9)
HUGE_D = 10**400


class TestExtremeInputs:
    """An enormous K or d is rejected within seconds, with an error line.

    Each case runs in its own process with a timeout, so that a return to
    forming 3**K or d**(2K) fails here instead of stalling the suite.
    """

    @pytest.mark.parametrize(
        "argv, fid, code",
        [
            (["scan", "--d", "2", "--K", HUGE_K], None, 3),
            (["scan", "--d", "2", "--K", HUGE_K, "--grid", "1"], None, 3),
            (["twirl", "--d", "3", "--K", HUGE_K], None, 4),
            (["ppt"], {"d": 2, "K": 10**9}, 2),
            (["sep"], {"d": 2, "K": 10**9}, 2),
            (["reduce", "--pair", "0"], {"d": 2, "K": 10**9}, 2),
            (["projectors", "--d", "2", "--K", HUGE_K, "--alpha", "0"], None, 2),
            (["scan", "--d", str(HUGE_D), "--K", "1", "--grid", "2"], None, 2),
            (["ppt"], {"d": HUGE_D, "K": 1}, 2),
            (["sep"], {"d": HUGE_D, "K": 1}, 2),
            (["vertices", "--d", str(HUGE_D)], None, 2),
            (["projectors", "--d", str(HUGE_D), "--K", "1", "--alpha", "0"], None, 3),
        ],
    )
    def test_exit_code_without_traceback(self, tmp_path, argv, fid, code):
        argv = list(argv)
        if fid is not None:
            path = tmp_path / "fid.json"
            path.write_text(json.dumps({**fid, "pi": [1.0, 0.0, 0.0]}))
            argv += ["--fid", str(path)]
        if argv[0] == "twirl":
            path = tmp_path / "state.json"
            path.write_text(json.dumps(operator_doc(np.eye(9) / 9, (3, 3))))
            argv += ["--state", str(path)]
        if argv[0] == "scan":
            argv += ["--out", str(tmp_path / "scan.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "orthosym", *argv],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "scan.csv").exists()


class TestRunEntryPoint:
    """``cli.run``, the entry point of ``python -m orthosym``, flushes the output
    and ends the process without interpreter teardown."""

    @pytest.mark.parametrize("module", ["orthosym", "orthosym.cli"])
    @pytest.mark.parametrize("K", ["1", "5"])
    def test_output_equals_in_process_main(self, capsys, module, K):
        # buffered stdout: at K = 1 (477 bytes) the whole output waits in the
        # buffer for run's flush; at K = 5 (942 KB) one write passes it through
        argv = ["vertices", "--d", "2", "--K", K]
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, timeout=120, env=child_env(unbuffered=False),
        )
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stderr) == (code, err.encode()) == (0, b"")
        assert proc.stdout == out.encode()

    @pytest.mark.parametrize(
        "unbuffered, code, message",
        [(False, 120, "Exception ignored"), (True, 2, "error: [Errno 32] Broken pipe")],
    )
    def test_closed_stdout_exits_as_the_interpreter_does(self, unbuffered, code, message):
        # unbuffered, the write fails inside main; buffered, the flush fails and
        # the interpreter reports it at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orthosym", "vertices", "--d", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env=child_env(unbuffered=unbuffered),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stderr.count(message) == 1
        assert "Traceback" not in proc.stderr

    def test_closed_stderr_still_exits_0(self, capsys):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "orthosym",
             "vertices", "--d", "2"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        _, out, _ = run(capsys, "vertices", "--d", "2")
        assert (proc.returncode, proc.stdout) == (0, out)

    def test_profiler_still_reports(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "orthosym", "vertices", "--d", "2"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        _, out, _ = run(capsys, "vertices", "--d", "2")
        assert proc.returncode == 0
        assert proc.stdout.startswith(out)
        assert "function calls" in proc.stdout and "Ordered by" in proc.stdout

    @pytest.mark.parametrize(
        "observer, observed",
        [
            ("", False),
            ("sys.settrace(lambda frame, event, arg: None)", True),
            ("sys.setprofile(lambda frame, event, arg: None)", True),
            ("sys.monitoring = SimpleNamespace(get_tool=lambda i: 'cov' if i == 1 else None)",
             True),
        ],
        ids=["none", "trace", "profile", "monitoring"],
    )
    def test_atexit_handlers_run_only_when_observed(self, capsys, observer, observed):
        script = "\n".join([
            "import atexit, sys",
            "from types import SimpleNamespace",
            "from orthosym.cli import run",
            observer,
            "atexit.register(print, 'atexit ran')",
            "sys.argv = ['orthosym', 'vertices', '--d', '2']",
            "run()",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=child_env(unbuffered=False),
        )
        _, out, _ = run(capsys, "vertices", "--d", "2")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == out + ("atexit ran\n" if observed else "")
