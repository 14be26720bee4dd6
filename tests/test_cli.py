"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from orthosym import (
    PSD_TOL,
    ComplexOperator,
    FidelityVector,
    all_masks,
    all_multi_indices,
    cli,
    ppt_check,
    random_orthogonal,
    sep_bound_check,
    simplex_grid,
)
from orthosym import projectors as projectors_module
from orthosym import simplex as simplex_module
from orthosym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fid(tmp_path, name, d, K, pi):
    path = tmp_path / name
    path.write_text(json.dumps({"d": d, "K": K, "pi": list(pi)}))
    return str(path)


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

    def test_projectors_capacity_exit_code(self, capsys):
        code, _, err = run(capsys, "projectors", "--d", "3", "--K", "4", "--alpha", "0,0,0,0")
        assert code == 3
        assert "error" in err

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
        u = random_orthogonal(4, 11).matrix.real
        lam = np.array([-factor * PSD_TOL, 0.5, 0.3, 0.2 + factor * PSD_TOL])
        rho = (u * lam) @ u.T
        state = tmp_path / "edge.json"
        state.write_text(json.dumps(ComplexOperator(rho, (2, 2)).to_json()))
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

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "ppt", "--fid", "/nonexistent/f.json")
        assert code == 2

    def test_non_state_is_domain_error(self, capsys, tmp_path):
        fid = write_fid(tmp_path, "bad.json", 2, 1, [0.9, 0.4, -0.3])
        code, _, _ = run(capsys, "ppt", "--fid", fid)
        assert code == 4


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


    @pytest.mark.parametrize(
        "field", [{"d": 2.5}, {"K": 1.5}, {"d": 2.0}, {"d": "2"}, {"K": True}]
    )
    def test_rejects_non_integer_d_and_K(self, capsys, tmp_path, field):
        doc = {"d": 2, "K": 1, "pi": [1.0, 0.0, 0.0], **field}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sep", "--fid", str(path))
        assert code == 2
        assert out == ""
        assert "integers" in err


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
        monkeypatch.setattr(cli, "all_multi_indices", no_work)
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


class TestReduce:
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

    @pytest.mark.parametrize("d, K", [(2, 5), (2, 6), (4, 3)])
    def test_over_family_budget_exits_3_before_any_build(self, capsys, monkeypatch, d, K):
        # dense families of 4.1 GB, 196 GB and 7.2 GB
        def no_build(*args):
            raise AssertionError("a dense projector was built before the budget check")

        monkeypatch.setattr(projectors_module, "build_multipartite", no_build)
        code, out, err = run(capsys, "verify", "--d", str(d), "--K", str(K))
        assert code == 3
        assert "budget" in err
        assert out == ""

    def test_seed_flag_changes_residuals(self, capsys):
        _, out_a, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "1")
        _, out_b, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "2")
        _, out_a2, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "1")
        assert out_a == out_a2
        assert out_a != out_b

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOSYM_SEED", "77")
        _, out_env, _ = run(capsys, "verify", "--d", "2", "--K", "1")
        _, out_flag_wins, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "12")
        monkeypatch.delenv("ORTHOSYM_SEED")
        _, out_flag, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "77")
        _, out_12, _ = run(capsys, "verify", "--d", "2", "--K", "1", "--seed", "12")
        assert out_env == out_flag
        assert out_flag_wins == out_12


class TestArgumentHandling:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["ppt", "scan"])
    def test_bad_tol_rejected(self, capsys, tmp_path, command, tol):
        if command == "ppt":
            argv = ["ppt", "--fid", write_fid(tmp_path, "u.json", 2, 1, [1 / 3] * 3)]
        else:
            argv = ["scan", "--d", "2", "--K", "1", "--grid", "4", "--out", str(tmp_path / "s")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--tol={tol}"])
        assert exc.value.code == 2
        assert "finite number >= 0" in capsys.readouterr().err

    def test_nonpositive_grid_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--d", "2", "--K", "1", "--grid", "0", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
