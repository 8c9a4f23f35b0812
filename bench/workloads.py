"""The three benchmark workloads: seeded inputs, the timed call, and its checks.

Every workload is a closed loop with one caller in one process: the next
operation starts only when the previous one returns.  Inputs come from
``random.Random(seed)`` alone, so they do not depend on numpy's version, and
the program sees only the generated points and argument lists.  Checks run
outside the timed call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import tabounds
from tabounds import cli, verify

import oracles

QUBIT_TOL = 1e-7    # qubit-bound tolerance of verify's bounds/qubit-sandwich-grid
GAUSS_RTOL = 1e-9   # closed-form tolerance of verify's gaussian grids, taken relative
CHECK_SALT = 0x5EED  # keeps the checker's subsample draws apart from the input draws
ORACLE_POINTS = 40  # qubit points per run checked against the dilation oracle
ORACLE_ROWS = 600   # CSV rows per run checked against the 50-digit closed forms

GAUSSIAN_HEADER = "x,lower,upper_extended,upper_twist,upper_plob,upper_swat,best_upper,gap"
GRID_HEADER = "eta,noise,gap"
GAUSSIAN_CELLS = ("lower", "extended", "twist", "plob", "swat", "best_upper", "gap")


@dataclass
class Record:
    """What the checks found for the operation numbered ``index``."""

    index: int
    items: int = 0
    attempted: int = 1
    failed: int = 0
    wrong: bool = False
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, wrong: bool = True) -> None:
        """Count this operation as failed; ``wrong`` marks a returned but wrong output."""
        self.failed = max(self.failed, 1)
        self.wrong = self.wrong or wrong
        self.errors.append(message)


def _pick(r: random.Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] from ``r.random()`` alone."""
    return lo + int(r.random() * (hi - lo + 1))


class Reservoir:
    """A seeded uniform sample of at most ``size`` items from a stream, so
    that the checker's memory and time do not grow with the run."""

    def __init__(self, seed: int, size: int):
        self.picker = random.Random(seed ^ CHECK_SALT)
        self.size = size
        self.seen = 0
        self.items = []

    def offer(self, item) -> None:
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = int(self.picker.random() * (self.seen + 1))
            if j < self.size:
                self.items[j] = item
        self.seen += 1


# ---------------------------------------------------------------------------
# qubit-points


@dataclass(frozen=True)
class QubitPoint:
    eta: float
    noise: float


def qubit_points(seed: int):
    """Endless seeded stream of qubit (eta, noise) points.

    In every ten points, one has eta <= 1/2 (the zero-capacity
    short-circuit) and one has zero noise (the capacity is known exactly),
    in fixed positions so that every seed gets the same mix.
    """
    r = random.Random(seed)
    for k in itertools.count():
        if k % 10 == 0:
            yield QubitPoint(0.5 * (1.0 - r.random()), 0.5 * (1.0 - r.random()))
        elif k % 10 == 5:
            yield QubitPoint(1.0 - 0.5 * r.random(), 0.0)
        else:
            yield QubitPoint(1.0 - 0.5 * r.random(), 0.5 * (1.0 - r.random()))


class QubitPoints:
    """``tabounds.report("qubit", eta, noise)`` at seeded points."""

    name = "qubit-points"

    def __init__(self, seed: int, workdir: str, min_optimized: int = 100):
        self.seed = seed
        self.min_optimized = min_optimized
        self.optimized = 0
        self.oracle_checked = 0
        self._sample = Reservoir(seed, ORACLE_POINTS)

    def inputs(self):
        return qubit_points(self.seed)

    def warm_up(self) -> None:
        tabounds.report("qubit", 0.75, 0.1)

    def call(self, pt: QubitPoint):
        return tabounds.report("qubit", pt.eta, pt.noise)

    def enough(self, ops: int) -> bool:
        # p90 needs at least ten samples beyond it among the optimized points.
        return self.optimized >= self.min_optimized

    def check(self, pt: QubitPoint, r, rec: Record) -> None:
        if pt.eta > 0.5:
            self.optimized += 1
        if r is None:
            return
        rec.items = 1
        lower, upper, best = r.lower, r.uppers["extended"], r.best_upper
        if not all(math.isfinite(v) and v >= 0.0 for v in (lower, upper, best, r.gap)):
            rec.fail(f"non-finite or negative entry at {pt}: {r}")
        elif lower > best + QUBIT_TOL:
            rec.fail(f"lower {lower!r} exceeds best_upper {best!r} at {pt}")
        elif pt.eta <= 0.5 and (lower != 0.0 or best != 0.0):
            rec.fail(f"nonzero bound at eta <= 1/2: {pt}")
        elif pt.noise == 0.0 and pt.eta > 0.5:
            q = oracles.amplitude_damping_capacity(pt.eta)
            self._compare(rec.fail, pt, (lower, best), (q, q))
        elif pt.eta > 0.5:
            self._sample.offer((rec.index, pt, lower, upper))

    def _compare(self, fail, pt: QubitPoint, got, ref) -> None:
        self.oracle_checked += 1
        dev = max(abs(a - b) for a, b in zip(got, ref))
        if dev > QUBIT_TOL:
            fail(f"(lower, upper) {got} off the oracle {ref} by {dev:.3e} at {pt}")

    def final_check(self, fail) -> None:
        """A seeded sample of the noisy points against the brute-force
        dilation; ``fail(index, message)`` records a wrong output.  (Every
        zero-noise point was checked against the exact capacity already.)"""
        for index, pt, lower, upper in self._sample.items:
            ref = oracles.qubit_bounds(pt.eta, pt.noise)
            self._compare(lambda message: fail(index, message), pt, (lower, upper), ref)


# ---------------------------------------------------------------------------
# gaussian-csv


@dataclass(frozen=True)
class Axis:
    """Inclusive grid start, start + step, ... in thousandths, as a user types it."""

    start: int
    step: int
    count: int

    def value(self, k: int) -> Fraction:
        return Fraction(self.start + k * self.step, 1000)

    def floats(self) -> list[float]:
        return [(self.start + k * self.step) / 1000 for k in range(self.count)]

    def flag(self, var: str) -> str:
        stop = self.start + (self.count - 1) * self.step
        return f"{var}={self.start / 1000!r}:{stop / 1000!r}:{self.step / 1000!r}"


@dataclass(frozen=True)
class SweepJob:
    """One ``tabounds sweep gaussian`` invocation: a 1-D sweep of ``shape``
    ("eta" or "noise") with the other axis fixed, or a 2-D "grid"."""

    shape: str
    eta: Axis
    noise: Axis

    def argv(self, out: str) -> list[str]:
        args = ["sweep", "gaussian"]
        if self.shape in ("eta", "grid"):
            args += ["--sweep", self.eta.flag("eta")]
        if self.shape in ("noise", "grid"):
            args += ["--sweep", self.noise.flag("noise")]
        if self.shape == "eta":
            args += ["--noise", repr(self.noise.start / 1000)]
        if self.shape == "noise":
            args += ["--eta", repr(self.eta.start / 1000)]
        return args + ["--out", out]

    def point(self, row: int) -> tuple[Fraction, Fraction]:
        i, j = divmod(row, self.noise.count)
        return self.eta.value(i), self.noise.value(j)


# Every gaussian sweep that a caller in this repository runs, through the CLI
# or as the equivalent loop over report(): (where, eta, noise).  An axis is a
# range as the caller types it; a tuple holds the fixed values the caller
# uses.  The stream cycles through this table, so each caller has an equal
# share: five eta sweeps, two noise sweeps and four eta x noise grids.  No
# caller in this repository sweeps eta up to 1.0; such sweeps hit the
# grid-endpoint defect of ROADMAP.md item 4, so the stream has none until
# that is fixed.
CALLERS = (
    ("README.md; tests/test_cli.py; tests/test_acceptance.py", "0.5:0.99:0.01", (0.1,)),
    ("tests/test_acceptance.py", "0.5:0.99:0.01", (0.5,)),
    ("tests/test_cli.py", "0.6:0.9:0.05", (0.3,)),
    ("demos/gaussian_attenuator_bounds.py, table", "0.55:0.95:0.05", (0.1, 0.5)),
    ("demos/gaussian_attenuator_bounds.py, plot", "0.5:0.995:0.005", (0.1, 0.5)),
    ("tests/test_cli.py", (0.8,), "0:0.5:0.1"),
    ("verify bounds/gaussian-sandwich-grid, one eta", tuple(k / 100 for k in range(51, 100)), "0:5:0.01"),
    ("README.md; tests/test_acceptance.py", "0.5:0.99:0.01", "0:5:0.1"),
    ("tests/test_cli.py", "0.5:0.9:0.1", "0:2:0.5"),
    ("demos/capacity_gap_map.py", "0.5:0.995:0.005", "0:5:0.05"),
    ("verify bounds/zero-capacity-region-gap", "0.5:0.98:0.02", "0:5:0.25"),
)


def _milli(x: float) -> int:
    return round(x * 1000)


def _axis(r: random.Random, spec) -> Axis:
    """A caller's axis with a seeded start and step.

    The step is scaled by a factor in [1/sqrt(2), sqrt(2)) and the start
    moved up by at most a tenth of the range.
    """
    if isinstance(spec, tuple):
        return Axis(_milli(spec[_pick(r, 0, len(spec) - 1)]), 1, 1)
    start, stop, step = (_milli(float(x)) for x in spec.split(":"))
    step = max(1, round(step * 2 ** (r.random() - 0.5)))
    start += _pick(r, 0, (stop - start) // 10)
    return Axis(start, step, (stop - start) // step + 1)


def sweep_jobs(seed: int):
    """Endless seeded stream of gaussian sweep invocations, one per caller in turn."""
    r = random.Random(seed)
    for _, eta, noise in itertools.cycle(CALLERS):
        eta_axis, noise_axis = _axis(r, eta), _axis(r, noise)
        if isinstance(noise, tuple):
            shape = "eta"
        elif isinstance(eta, tuple):
            shape = "noise"
        else:
            shape = "grid"
        yield SweepJob(shape, eta_axis, noise_axis)


def _short_circuit(eta: float, noise: float) -> bool:
    """Whether report() returns at eta = 1 or in the entanglement-breaking
    regime without evaluating a closed form."""
    return eta >= 1.0 or noise >= eta / (1.0 - eta)


def _cell_matches(cell: str, expected: float) -> bool:
    if math.isinf(expected):
        return cell == "inf"
    return abs(float(cell) - expected) <= GAUSS_RTOL * max(1.0, abs(expected))


class GaussianCsv:
    """In-process ``tabounds sweep gaussian`` invocations writing CSV files."""

    name = "gaussian-csv"

    def __init__(self, seed: int, workdir: str, min_invocations: int = 100):
        self.seed = seed
        self.min_invocations = min_invocations
        self.out = os.path.join(workdir, "sweep.csv")
        self.rows_written = 0
        self.rows_short_circuit = 0
        self.bytes_written = 0
        self.oracle_checked = 0
        self._stderr = io.StringIO()
        self._sample = Reservoir(seed, ORACLE_ROWS)

    def inputs(self):
        return sweep_jobs(self.seed)

    def warm_up(self) -> None:
        self.call(SweepJob("eta", Axis(500, 50, 3), Axis(100, 1, 1)))
        os.remove(self.out)

    def call(self, job: SweepJob) -> int:
        with contextlib.redirect_stderr(self._stderr):
            return cli.main(job.argv(self.out))

    def enough(self, ops: int) -> bool:
        return ops >= self.min_invocations

    def check(self, job: SweepJob, code, rec: Record) -> None:
        if code is None:
            return
        if code != 0:
            message = self._stderr.getvalue().strip().splitlines()[-1:] or [""]
            rec.fail(f"exit {code} for {' '.join(job.argv('OUT'))}: {message[0]}", wrong=False)
            self._stderr.seek(0)
            self._stderr.truncate()
            if os.path.exists(self.out):
                os.remove(self.out)
            return
        expected = job.eta.count * job.noise.count
        pick = int(self._sample.picker.random() * expected)
        header = GRID_HEADER if job.shape == "grid" else GAUSSIAN_HEADER
        etas, noises = job.eta.floats(), job.noise.floats()
        rows = short = 0
        error = None
        # Read line by line, so that the checker's memory does not grow with the file.
        with open(self.out, encoding="utf-8", newline="") as fh:
            self.bytes_written += os.fstat(fh.fileno()).st_size
            if fh.readline() != header + "\n":
                error = "bad header"
            for k, line in enumerate(fh):
                rows += 1
                if error is not None or k >= expected:
                    continue
                i, j = divmod(k, job.noise.count)
                short += _short_circuit(etas[i], noises[j])
                error = self._row_error(job, k, line, etas[i], noises[j])
                if k == pick and error is None:
                    self._sample.offer((rec.index, job, k, line[:-1].split(",")))
        os.remove(self.out)
        rec.items = rows
        self.rows_written += rows
        self.rows_short_circuit += short
        if error is None and rows != expected:
            error = f"{rows} rows, expected {expected}"
        if error is not None:
            rec.fail(error)

    @staticmethod
    def _row_error(job: SweepJob, k: int, line: str, eta: float, noise: float) -> str | None:
        """What is wrong with CSV row ``k`` of ``job`` at the grid point (eta, noise)."""
        if not line.endswith("\n"):
            return f"row {k} {line!r}: missing final newline"
        row = line[:-1]
        cells = row.split(",")
        coords = (eta, noise) if job.shape == "grid" else ((eta,) if job.shape == "eta" else (noise,))
        width = 3 if job.shape == "grid" else len(GAUSSIAN_CELLS) + 1
        try:
            on_grid = len(cells) == width and all(
                abs(float(c) - v) <= 1e-11 * max(1.0, v) for c, v in zip(cells, coords)
            )
        except ValueError:
            on_grid = False
        if not on_grid:
            return f"row {k} {row!r} does not match grid point eta={eta!r} noise={noise!r}"
        if eta == 1.0:
            want = ["0"] if job.shape == "grid" else ["inf"] * 6 + ["0"]
            if cells[len(coords):] != want:
                return f"row {k} {row!r}: eta = 1 must render inf bounds and gap 0"
        elif "n" in row:  # "inf" or "nan" away from eta = 1
            return f"row {k} {row!r}: non-finite entry below eta = 1"
        return None

    def final_check(self, fail) -> None:
        """A seeded sample of rows against 50-digit closed forms;
        ``fail(index, message)`` records a wrong output."""
        for index, job, k, cells in self._sample.items:
            eta, noise = job.point(k)
            columns = GAUSSIAN_CELLS[-1:] if job.shape == "grid" else GAUSSIAN_CELLS
            got = cells[-len(columns):]
            candidates = oracles.gaussian_row(eta, noise)
            self.oracle_checked += 1
            if not any(all(_cell_matches(c, exp[name]) for c, name in zip(got, columns)) for exp in candidates):
                fail(index, f"row eta={eta} noise={noise} {cells} off the closed forms {candidates[0]}")


# ---------------------------------------------------------------------------
# verify-all


class VerifyAll:
    """``tabounds.verify.run_suite("all")``; each call is one sample.

    The suites fix their own random seeds, so the benchmark seed does not
    reach them.
    """

    name = "verify-all"

    def __init__(self, seed: int, workdir: str, min_runs: int = 3):
        self.min_runs = min_runs
        self.checks = 0
        self.checks_failed = 0

    def inputs(self):
        return itertools.repeat("all")

    def warm_up(self) -> None:
        verify.run_suite("gaussian")

    def call(self, suite: str):
        return verify.run_suite(suite)

    def enough(self, ops: int) -> bool:
        return ops >= self.min_runs

    def check(self, suite: str, results, rec: Record) -> None:
        if results is None:
            return
        if not results:
            rec.fail(f"suite {suite!r} ran no checks")
            return
        bad = [r for r in results if not r.passed]
        rec.items = rec.attempted = len(results)
        rec.failed = len(bad)
        rec.wrong = bool(bad)
        rec.errors = [f"{r.name}: worst {r.worst:.3e} > tol {r.tolerance:g} {r.detail}" for r in bad]
        self.checks += len(results)
        self.checks_failed += len(bad)

    def final_check(self, fail) -> None:
        pass


WORKLOADS = {w.name: w for w in (QubitPoints, GaussianCsv, VerifyAll)}
