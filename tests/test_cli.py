import hashlib
import json
import math
import re
import subprocess
import sys
import time

import pytest

from support import child_env
from tabounds import bounds, cli, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_json_structure_and_key_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "gaussian", "--eta", "0.9", "--noise", "0.1", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["kind", "eta", "noise", "lower", "uppers", "best_upper", "gap"]
        assert list(obj["uppers"]) == ["extended", "twist", "plob", "swat"]
        assert obj["best_upper"] == pytest.approx(verify.GAUSS_ANCHORS_09_01["plob"], abs=1e-9)

    @pytest.mark.parametrize("eta", ["0.9", "1"])
    def test_json_round_trip_is_byte_stable(self, capsys, eta):
        code, out, _ = run_cli(
            capsys, "bounds", "gaussian", "--eta", eta, "--noise", "0.1", "--format", "json"
        )
        assert code == 0
        assert cli.render_json(json.loads(out)) + "\n" == out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "bounds", "gaussian", "--eta", "0.73", "--noise", "0.21", "--format", "json")
        _, out2, _ = run_cli(capsys, "bounds", "gaussian", "--eta", "0.73", "--noise", "0.21", "--format", "json")
        assert out1 == out2

    def test_balanced_splitter_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "gaussian", "--eta", "0.5", "--noise", "0.3", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] == 0
        assert obj["uppers"]["twist"] == 0
        assert obj["uppers"]["swat"] == 0
        assert obj["best_upper"] == 0
        assert obj["gap"] == 0

    def test_identity_qubit_channel(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "qubit", "--eta", "1", "--noise", "0", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] == pytest.approx(1.0, abs=1e-9)
        assert obj["best_upper"] == pytest.approx(1.0, abs=1e-9)
        assert list(obj["uppers"]) == ["extended"]

    def test_infinity_token(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "gaussian", "--eta", "1", "--noise", "0.2", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] == "inf"
        assert obj["uppers"]["plob"] == "inf"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "gaussian", "--eta", "0.9", "--noise", "0.1")
        assert code == 0
        assert out.startswith("channel:    gaussian")
        assert "upper[twist]:" in out

    def test_argument_errors_name_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "gaussian", "--eta", "1.5", "--noise", "0.1")
        assert code == 1
        assert "--eta" in err
        code, _, err = run_cli(capsys, "bounds", "qubit", "--eta", "0.9", "--noise", "0.8")
        assert code == 1
        assert "--noise" in err

    @pytest.mark.parametrize("kind", ["gaussian", "qubit"])
    def test_nan_is_rejected_naming_the_flag(self, capsys, kind):
        for eta, noise, flag in (("0.9", "nan", "--noise"), ("nan", "0.1", "--eta")):
            code, _, err = run_cli(capsys, "bounds", kind, "--eta", eta, "--noise", noise)
            assert code == 1
            assert flag in err

    def test_infinite_gaussian_noise_is_entanglement_breaking(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "gaussian", "--eta", "0.9", "--noise", "inf", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["noise"] == "inf"
        assert [obj["lower"], obj["best_upper"], obj["gap"]] == [0, 0, 0]
        assert set(obj["uppers"].values()) == {0}

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "qutrit", "--eta", "0.9", "--noise", "0.1")
        assert code == 1


class TestSweepCommand:
    def test_gaussian_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "gauss.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "eta=0.5:0.99:0.01", "--noise", "0.1",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,lower,upper_extended,upper_twist,upper_plob,upper_swat,best_upper,gap"
        assert len(lines) == 51  # header + 50 grid points
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) >= float(cells[1]) - 1e-9  # lower <= extended
            assert float(cells[3]) <= float(cells[5]) + 1e-9  # twist <= swat

    def test_gaussian_sweep_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "sweep", "gaussian", "--sweep", "eta=0.6:0.9:0.05", "--noise", "0.3",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_qubit_sweep_columns_and_proximity(self, capsys, tmp_path):
        out_path = tmp_path / "qubit.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "qubit", "--sweep", "eta=0.5:0.95:0.05", "--noise", "0.01",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,lower,upper_extended,best_upper,gap"
        assert len(lines) == 11
        for line in lines[1:]:
            x, lower, upper, best, gap = (float(v) for v in line.split(","))
            if x <= 0.9:
                assert abs(upper - lower) < 0.1  # bounds close at small noise

    def test_eta_sweep_ends_exactly_at_one(self, capsys, tmp_path):
        # 0.09 + 13 * 0.07 lands one ulp above 1.0; the grid must emit 1.0 itself.
        out_path = tmp_path / "gauss.csv"
        code, _, err = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "eta=0.09:1.0:0.07", "--noise", "0.1",
            "--out", str(out_path),
        )
        assert code == 0, err
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 14
        assert lines[-1] == "1,inf,inf,inf,inf,inf,inf,0"

    def test_qubit_eta_sweep_ends_exactly_at_one(self, capsys, tmp_path):
        out_path = tmp_path / "qubit.csv"
        code, _, err = run_cli(
            capsys, "sweep", "qubit", "--sweep", "eta=0.09:1.0:0.07", "--noise", "0.1",
            "--out", str(out_path),
        )
        assert code == 0, err
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 14
        assert lines[-1] == "1,1,1,1,0"  # identity channel

    def test_grid_snaps_last_point_to_stop(self):
        assert bounds.grid(0.09, 1.0, 0.07)[-1] == 1.0
        assert bounds.grid(0.0, 0.5, 0.1)[-1] == 0.5
        assert bounds.grid(0.5, 0.95, 0.1)[-1] == 0.5 + 4 * 0.1  # stop not on the grid

    def test_noise_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "noise.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "noise=0:0.5:0.1", "--eta", "0.8",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 7
        gaps = [float(line.split(",")[-1]) for line in lines[1:]]
        assert gaps[0] == 0.0  # zero-noise gap closes
        assert all(gaps[i] <= gaps[i + 1] + 1e-9 for i in range(len(gaps) - 1))

    def test_two_dimensional_grid(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "eta=0.5:0.9:0.1",
            "--sweep", "noise=0:2:0.5", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "eta,noise,gap"
        assert len(lines) == 1 + 5 * 5
        for line in lines[1:]:
            eta, noise, gap = (float(v) for v in line.split(","))
            if bounds.entanglement_breaking(eta, noise):
                assert gap == 0.0  # zero-capacity region

    def test_missing_fixed_value(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "eta=0.5:0.9:0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "--noise" in err

    def test_bad_sweep_syntax(self, capsys, tmp_path):
        for spec in ("eta=0.9:0.5:0.01", "eta=0.5:0.9:-0.1", "phi=0:1:0.1", "eta=0.5", "eta=0.5:0.6:inf"):
            code, _, err = run_cli(
                capsys, "sweep", "gaussian", "--sweep", spec, "--noise", "0.1",
                "--out", str(tmp_path / "x.csv"),
            )
            assert code == 1
            assert "--sweep" in err

    def test_bad_fixed_value_names_its_flag(self, capsys, tmp_path):
        for sweep, flag, value in (("eta=0.5:0.9:0.1", "--noise", "nan"), ("noise=0:0.4:0.1", "--eta", "1.5")):
            code, _, err = run_cli(
                capsys, "sweep", "qubit", "--sweep", sweep, flag, value, "--out", str(tmp_path / "x.csv"),
            )
            assert code == 1
            assert err.startswith(f"error: {flag} ")

    def test_sweep_range_outside_domain(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "eta=0.5:1.5:0.1", "--noise", "0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1 and "--sweep" in err
        code, _, err = run_cli(
            capsys, "sweep", "qubit", "--sweep", "noise=0:0.9:0.1", "--eta", "0.8",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1 and "--sweep" in err

    def test_two_dimensional_grid_is_capped_by_its_point_count(self, capsys, tmp_path, monkeypatch):
        # Each axis is under the cap; their 1000 x 1001 product is just over it.
        monkeypatch.setattr(cli.bounds, "report", lambda *a: pytest.fail("report() called"))
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "eta=0:0.999:0.001", "--sweep", "noise=0:1:0.001",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: --sweep ") and "1001000 points" in err
        assert not out.exists()

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "gaussian", "--sweep", "eta=0.6:0.7:0.05", "--noise", "0.1",
            "--out", str(tmp_path),  # a directory, not a file
        )
        assert code == 3
        assert "--out" in err


class TestVerifyCommand:
    def test_each_suite_prints_exactly_its_own_checks(self, capsys, monkeypatch):
        names = ("linalg/a", "qubit/b", "gaussian/c", "bounds/d", "linalg/e", "qubits/f")
        fakes = {n: (lambda n=n: verify.CheckResult(n, True, 0.0, 1e-12)) for n in names}
        monkeypatch.setattr(verify, "CHECKS", fakes)
        for suite in ("linalg", "qubit", "gaussian"):
            code, out, _ = run_cli(capsys, "verify", suite)
            assert code == 0
            printed = [line.split()[1] for line in out.splitlines()[:-1]]
            assert printed == [n for n in names if n.startswith(suite + "/")]

    def test_failure_reports_counterexample_and_exit_code(self, capsys, monkeypatch):
        failing = verify.CheckResult(
            name="demo/failing-check", passed=False, worst=1.0, tolerance=1e-9,
            detail="eta=0.9 N=0.1",
        )
        monkeypatch.setitem(verify.SUITES, "linalg", (lambda timings=None: [failing],))
        code, out, err = run_cli(capsys, "verify", "linalg")
        assert code == 2
        assert "[FAIL]" in out
        assert "eta=0.9 N=0.1" in err

    def test_json_gives_one_object_per_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "linalg", "--format", "json")
        assert code == 0
        lines = out.splitlines()
        objs = [json.loads(line) for line in lines]
        assert [cli.render_json(obj) for obj in objs] == lines
        assert all(list(obj) == ["name", "passed", "worst", "tolerance", "detail", "elapsed_s"] for obj in objs)
        assert all(obj["passed"] is True and obj["elapsed_s"] >= 0.0 for obj in objs)
        want = [(r.name, r.worst, r.tolerance, r.detail) for r in verify.run_suite("linalg")]
        got = [(obj["name"], obj["worst"], obj["tolerance"], obj["detail"]) for obj in objs]
        assert got == [(n, float(cli._fmt(w)), t, d) for n, w, t, d in want]

    def test_json_renders_booleans_and_every_non_finite_real(self):
        text = cli.render_json({"a": True, "b": False, "c": math.inf, "d": -math.inf, "e": math.nan})
        assert text == '{"a": true, "b": false, "c": "inf", "d": "-inf", "e": "nan"}'
        assert cli.render_json(json.loads(text)) == text

    def test_json_escapes_keys_and_strings(self):
        tricky = 'a"b\\c\nd'
        text = cli.render_json({tricky: tricky, "worst": 0.5})
        assert json.loads(text) == {tricky: tricky, "worst": 0.5}
        assert cli.render_json(json.loads(text)) == text

    def test_json_reports_a_nan_check_as_failed(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", {})

        @verify._register("linalg/fake-nan", 1e-12)
        def _():
            yield 0.5, "finite"
            yield float("nan"), "eta=0.9 N=0.1"

        code, out, err = run_cli(capsys, "verify", "linalg", "--format", "json")
        assert code == 2
        obj = json.loads(out)
        assert (obj["name"], obj["passed"], obj["worst"]) == ("linalg/fake-nan", False, "nan")
        assert obj["detail"] == "eta=0.9 N=0.1" and obj["detail"] in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "everything")
        assert code == 1
        assert "'everything'" in err and all(repr(name) in err for name in verify.SUITES)

    def test_all_suite_under_sixty_seconds(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "all")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "[FAIL]" not in out
        lines = out.splitlines()[:-1]
        names = [line.split()[1] for line in lines]
        assert names == list(verify.CHECKS) and len(names) == 34
        # The 34 checks keep their names, order and printed tolerances.
        tols = [re.search(r"\(tol (\S+)\)", line)[1] for line in lines]
        pairs = "\n".join(f"{name} {tol}" for name, tol in zip(names, tols))
        assert hashlib.sha256(pairs.encode()).hexdigest() == (
            "0081983a3a598aa3766e80dd6ee76523a4bcd0c97413cb54f2ccde7b308f7bd7"
        )
        assert elapsed < 60.0


def test_main_reuses_the_parser_built_at_import(capsys, tmp_path, monkeypatch):
    def no_new_parser(*args, **kwargs):
        raise AssertionError("cli.main built a parser")

    monkeypatch.setattr(cli._Parser, "__init__", no_new_parser)
    assert run_cli(capsys, "bounds", "gaussian", "--eta", "0.9", "--noise", "0.1")[0] == 0
    out = str(tmp_path / "sweep.csv")
    assert run_cli(capsys, "sweep", "qubit", "--sweep", "eta=0.5:0.9:0.1", "--noise", "0.1", "--out", out)[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tabounds", "bounds", "gaussian", "--eta", "0.8", "--noise", "0.2",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "gaussian"
