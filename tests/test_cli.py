import hashlib
import io
import json
import math
import random
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
    @pytest.mark.parametrize("name", ["eta", "noise"])
    def test_negative_zero_echoes_as_zero(self, capsys, name):
        values = {"eta": "0.5", "noise": "0.1", name: "-0.0"}
        argv = ["bounds", "gaussian", "--eta", values["eta"], "--noise", values["noise"]]
        code, text, _ = run_cli(capsys, *argv)
        assert code == 0 and f"{name}:".ljust(12) + "0" in text.splitlines()
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and f'"{name}": 0,' in out

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


def _seeded_sweep_axes(seed):
    """(kind, eta axis, noise axis) triples of seeded start:stop:step, both kinds, axes of unequal length."""
    rng = random.Random(seed)
    cases = []
    for kind, noise_max, cells in (("gaussian", 20.0, 30), ("gaussian", 2.0, 30), ("qubit", 0.5, 5)):
        eta0 = rng.uniform(0.0, 0.9)
        noise0 = rng.uniform(0.0, noise_max / 2)
        eta1, noise1 = rng.uniform(eta0 + 0.01, 1.0), rng.uniform(noise0 + 0.01, noise_max)
        eta_cells = rng.randint(2, cells)
        noise_cells = eta_cells + rng.randint(1, cells)
        cases.append((kind, (eta0, eta1, (eta1 - eta0) / eta_cells), (noise0, noise1, (noise1 - noise0) / noise_cells)))
    return cases


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

    @pytest.mark.parametrize(
        "kind,eta_axis,noise_axis",
        [
            ("gaussian", (0.5, 1.0, 0.05), (0.0, 8.0, 0.5)),  # eta ends at exactly 1.0, noise starts at 0
            ("gaussian", (0.09, 1.0, 0.07), (0.0, 0.5, 0.1)),  # the last eta snaps to 1.0
            ("gaussian", (0.75, 1.0, 0.25), (0.0, 6.0, 0.25)),  # through N = 3, the boundary at eta = 0.75
            ("qubit", (0.5, 1.0, 0.1), (0.0, 0.5, 0.25)),
            *_seeded_sweep_axes(24),
        ],
        ids=["gaussian-eta-to-one", "gaussian-eta-snaps-to-one", "gaussian-exact-boundary", "qubit-eta-to-one",
             "gaussian-seeded-wide", "gaussian-seeded-narrow", "qubit-seeded"],
    )
    def test_two_dimensional_rows_are_the_reports_rendered(self, capsys, tmp_path, kind, eta_axis, noise_axis):
        # Each row against the one template applied to the report of its point,
        # in the row-major order of bounds.reports over the same axes.
        out = tmp_path / "grid.csv"
        flags = [f"eta={':'.join(map(repr, eta_axis))}", f"noise={':'.join(map(repr, noise_axis))}"]
        code, _, err = run_cli(capsys, "sweep", kind, "--sweep", flags[0], "--sweep", flags[1], "--out", str(out))
        assert (code, err) == (0, "")
        lines = out.read_text(encoding="utf-8").split("\n")
        row = cli._row_template(3)
        want = [row % (r.eta, r.noise, r.gap) for r in bounds.reports(kind, bounds.grid(*eta_axis), bounds.grid(*noise_axis))]
        assert lines == [cli.GRID_CSV_HEADER, *want, ""]

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

    @pytest.mark.parametrize(
        "sweeps,flag,value",
        [
            (["eta=0.5:0.6:0.1"], "--eta", "5"),
            (["eta=0.5:0.6:0.1"], "--eta", "nan"),
            (["eta=0.5:0.6:0.1"], "--eta", "0.55"),
            (["noise=0:0.5:0.1"], "--noise", "-1"),
            (["noise=0:0.5:0.1"], "--noise", "0.2"),
            (["eta=0.5:0.6:0.1", "noise=0:0.5:0.1"], "--noise", "0.2"),
        ],
    )
    def test_a_fixed_value_of_a_swept_variable_is_a_usage_error(self, capsys, tmp_path, sweeps, flag, value):
        other = {"--eta": ["--noise", "0.1"], "--noise": ["--eta", "0.8"]}[flag] if len(sweeps) == 1 else []
        out = tmp_path / "x.csv"
        argv = ["sweep", "gaussian", *(a for s in sweeps for a in ("--sweep", s)), flag, value, *other]
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, err) == (1, f"error: {flag} cannot be given with --sweep {flag[2:]}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "sweep,want",
        [
            ("noise=-1e308:1e308:1e307", "noise must be nonnegative, got -1e+308"),
            ("eta=-1e308:1e308:1e307", "eta must lie in [0, 1], got -1e+308"),
        ],
    )
    def test_a_bad_start_is_named_before_the_point_count(self, capsys, tmp_path, sweep, want):
        # stop - start overflows to inf here, which the point count reads as too many points.
        fixed = ["--eta", "0.5"] if sweep.startswith("noise") else ["--noise", "0.5"]
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "gaussian", "--sweep", sweep, *fixed, "--out", str(out))
        assert (code, err) == (1, f"error: --sweep {want}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv,points",
        [
            (["--sweep", "noise=0:5:5e-6", "--eta", "0.9"], "1000001"),  # the count one over the cap
            (["--sweep", "noise=0:inf:1", "--eta", "0.9"], "inf"),  # stop - start overflows
            (["--sweep", "noise=0:1e308:1e-10", "--eta", "0.9"], "inf"),  # (stop - start) / step overflows
            (["--sweep", "eta=0.5:0.6:0.1", "--sweep", "noise=0:inf:1"], "inf"),
        ],
        ids=["exact-cap", "overflowing-span", "overflowing-count", "overflowing-2d"],
    )
    def test_a_sweep_over_the_cap_builds_no_grid(self, capsys, tmp_path, monkeypatch, argv, points):
        monkeypatch.setattr(cli.bounds, "grid", lambda *a: pytest.fail("grid() called"))
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "gaussian", *argv, "--out", str(out))
        assert (code, err) == (1, f"error: --sweep grid of {points} points exceeds 1000000 points\n")
        assert not out.exists()

    def test_grid_count_is_the_length_of_grid(self):
        for axis in ((0.09, 1.0, 0.07), (0.0, 5.0, 0.01), (0.5, 0.95, 0.1), (0.0, 1.0, 1e-6)):
            assert bounds.grid_count(*axis) == len(bounds.grid(*axis))
        for axis in ((0.0, math.inf, 1.0), (0.0, 1e308, 1e-10)):
            with pytest.raises(OverflowError):
                bounds.grid_count(*axis)
            with pytest.raises(OverflowError):
                bounds.grid(*axis)

    @pytest.mark.parametrize(
        "sweeps,want",
        [
            (
                ["eta=0.5:0.9:0.1", "noise=0:0.5:0.1", "noise=0:1:0.5"],
                "--sweep may be given at most twice (1-D or eta x noise grid)",
            ),
            (["eta=0.5:0.9:0.1", "eta=0.6:0.8:0.1"], "a 2-D sweep needs one --sweep for eta and one for noise"),
        ],
        ids=["three-sweeps", "eta-twice"],
    )
    def test_a_sweep_of_the_wrong_structure_is_refused(self, capsys, tmp_path, sweeps, want):
        out = tmp_path / "x.csv"
        argv = ["sweep", "gaussian", *(a for s in sweeps for a in ("--sweep", s)), "--noise", "0.1"]
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, err) == (1, f"error: {want}\n")
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
        for suite in ("linalg", "qubit", "gaussian", "bounds"):
            code, out, _ = run_cli(capsys, "verify", suite)
            assert code == 0
            printed = [line.split()[1] for line in out.splitlines()[:-1]]
            assert printed == [n for n in names if n.startswith(suite + "/")]

    def test_suites_are_all_and_the_check_prefixes(self):
        prefixes = {name.partition("/")[0] for name in verify.CHECKS}
        assert set(verify.SUITES) == {"all", *prefixes}
        assert all(verify.SUITES[p] == (getattr(verify, f"{p}_suite"),) for p in prefixes)
        assert sorted(verify.SUITES["all"], key=id) == sorted((verify.SUITES[p][0] for p in prefixes), key=id)

    def test_failure_reports_counterexample_and_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", {})

        @verify._register("linalg/failing-check", 1e-9)
        def _():
            yield 1.0, "eta=0.9 N=0.1"

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
        assert "'everything'" in err
        assert err.endswith("['all', 'bounds', 'gaussian', 'linalg', 'qubit']\n")

    def test_all_suite_under_sixty_seconds(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "all")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "[FAIL]" not in out
        lines = out.splitlines()[:-1]
        names = [line.split()[1] for line in lines]
        assert names == list(verify.CHECKS) and len(names) == 35
        # The 35 checks keep their names, order and printed tolerances.
        tols = [re.search(r"\(tol (\S+)\)", line)[1] for line in lines]
        pairs = "\n".join(f"{name} {tol}" for name, tol in zip(names, tols))
        assert hashlib.sha256(pairs.encode()).hexdigest() == (
            "3fb60b00caa7fb453c33a569791d76e755fac102953bb850df4c91cbca7e95d2"
        )
        assert elapsed < 60.0


def test_main_reuses_the_parser_built_at_import(capsys, tmp_path, monkeypatch):
    def no_new_parser(*args, **kwargs):
        raise AssertionError("cli.main built a parser")

    monkeypatch.setattr(cli._Parser, "__init__", no_new_parser)
    assert run_cli(capsys, "bounds", "gaussian", "--eta", "0.9", "--noise", "0.1")[0] == 0
    out = str(tmp_path / "sweep.csv")
    assert run_cli(capsys, "sweep", "qubit", "--sweep", "eta=0.5:0.9:0.1", "--noise", "0.1", "--out", out)[0] == 0


def test_a_broken_pipe_on_stdout_is_an_io_error(capsys, monkeypatch):
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    code = cli.main(["bounds", "gaussian", "--eta", "0.9", "--noise", "0.1"])
    assert (code, capsys.readouterr().err) == (3, "error: [Errno 32] Broken pipe\n")


def test_help_is_for_users(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in ("bounds", "sweep", "verify"))
    assert "``" not in out


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
