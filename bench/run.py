#!/usr/bin/env python3
"""Benchmark for tabounds: three closed-loop workloads against the public API.

    python3 bench/run.py --workload qubit-points --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``qubit-points`` (qubit reports at seeded
points), ``gaussian-csv`` (in-process ``tabounds sweep gaussian`` writing CSV
files) and ``verify-all`` (``verify.run_suite("all")``).

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload for half of ``--seconds`` (or up to MAX_SPANS spans) with a
span around every call into each layer's public functions, then runs the
same operations again untraced, and reports the per-layer metrics
(spans.py).  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with provenance, goes to ``.bench_out/`` at the repository root.

Exit status: 0 after a run (failed operations are counted, not fatal), 2
when the program under test cannot be found or imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it
MAX_SPANS = 400_000  # a traced pass ends after the operation that reaches this many spans

# The bounded metrics every workload reports: (name, unit).  What an
# "operation" and an "item" are depends on the workload; see ITEM_NAMES.
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
NOTES = [
    "load: closed loop, one caller, single-threaded, one process; BLAS/OpenMP threads pinned to 1",
    "no layer queues work or runs concurrently, so no wait-time metric applies",
    "timings cover this process only (perf_counter around each call, calibration bursts taken out); "
    "setup_s times fresh child interpreters from spawn to ready; no system-wide tracing",
    "'at reference speed' scales each call by the reference kernel's speed during it (calibrate.py)",
]


class ProgramMissing(Exception):
    """The tabounds sources are not where the benchmark expects them."""


def prepare() -> None:
    """Pin thread counts, then make ``src/tabounds`` of this checkout importable."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "tabounds" / "__init__.py").is_file():
        raise ProgramMissing(f"no tabounds package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tabounds

    if Path(tabounds.__file__).resolve().parent != (SRC / "tabounds").resolve():
        raise ProgramMissing(f"tabounds imported from {tabounds.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# statistics


def percentile(values, pct: int) -> tuple[float | None, int]:
    """Nearest-rank ``pct``-th percentile and the number of samples beyond it.

    The value is None unless at least MIN_TAIL samples lie beyond it.
    """
    n = len(values)
    rank = -(-pct * n // 100)
    beyond = n - rank
    if rank < 1 or beyond < MIN_TAIL:
        return None, max(beyond, 0)
    return sorted(values)[rank - 1], beyond


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tabounds").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads_pinned": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit() or "unavailable: not a git checkout",
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running


class Tally:
    """Latencies and check outcomes of a run's operations, kept in flat
    arrays so that the benchmark's own memory barely grows with the run."""

    MAX_ERRORS = 50

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.latency = array("d")
        self.items = array("q")
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0
        self._failed_ops: set[int] = set()

    def __len__(self) -> int:
        return len(self.latency)

    def add(self, t0: float, t1: float, latency: float, rec) -> None:
        self.start.append(t0)
        self.end.append(t1)
        self.latency.append(latency)
        self.items.append(rec.items)
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.wrong = self.wrong or rec.wrong
        if rec.failed:
            self._failed_ops.add(rec.index)
        self.errors.extend(rec.errors[: self.MAX_ERRORS - len(self.errors)])

    def fail(self, index: int, message: str) -> None:
        """A check after the loop found the output of operation ``index`` wrong."""
        if index not in self._failed_ops:
            self._failed_ops.add(index)
            self.failed += 1
        self.wrong = True
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)


def run_ops(wl, cal, seconds: float = 0.0, limit: int | None = None, tracer=None, use_min: bool = True) -> Tally:
    """Closed loop over the workload's inputs.

    Without ``limit`` the loop stops once the calls have taken ``seconds`` in
    total (or the tracer holds MAX_SPANS spans) and, if ``use_min``, the
    workload has enough samples.  Calibration
    bursts run before and after the loop and on a timer during it; their time
    is taken out of each call's latency.
    """
    from workloads import Record

    tally = Tally()
    busy = 0.0
    cal.burst()
    with cal.sampling():
        for i, inp in enumerate(wl.inputs()):
            if limit is not None:
                if i >= limit:
                    break
            elif i and (busy >= seconds or (tracer is not None and len(tracer) >= MAX_SPANS)):
                if not use_min or wl.enough(i):
                    break
            if tracer is not None:
                tracer.current_op = i
            t0 = perf_counter()
            try:
                out, err = wl.call(inp), None
            except Exception as exc:  # a call that raises is a failed operation; keep going
                out, err = None, exc
            t1 = perf_counter()
            latency = cal.clock(t1) - cal.clock(t0)
            busy += latency
            rec = Record(i)
            if err is not None:
                rec.fail(f"{type(err).__name__}: {err}", wrong=False)
            wl.check(inp, out, rec)
            tally.add(t0, t1, latency, rec)
    tally.peak_rss_mb = peak_rss_mib()  # before the checks after the loop add their own memory
    cal.burst()
    wl.final_check(tally.fail)
    return tally


def scaled_latencies(tally: Tally, cal) -> list[float]:
    """Each operation's seconds at reference machine speed."""
    return [lat * cal.scale(t0, t1) for lat, t0, t1 in zip(tally.latency, tally.start, tally.end)]


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def measure_setup(args, cal) -> tuple[float, float]:
    """Median set-up time over SETUP_PROBES fresh interpreters, as measured and
    at reference speed.  Calibration bursts run between the probes, never
    during one: a burst beside a starting interpreter runs several times slower."""
    raw, scaled = [], []
    cal.burst()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        elapsed = probe_setup(args)
        t1 = perf_counter()
        cal.burst()
        raw.append(elapsed)
        scaled.append(elapsed * cal.scale(t0, t1))
    return statistics.median(raw), statistics.median(scaled)


def _setup(wl_cls, seed: int, workdir: str, sizes: dict):
    wl = wl_cls(seed, workdir, **sizes)
    wl.warm_up()
    return wl


# The items each workload completes, and which named latency figures it reports.
ITEM_NAMES = {
    "qubit-points": ("points", "point"),
    "gaussian-csv": ("rows", "sweep"),
    "verify-all": ("checks", "verify"),
}


def named_figures(workload: str, items: int, lat: list[float], setup: float) -> list[tuple]:
    """The per-workload timing figures from per-operation seconds ``lat``:
    (name, value or None, unit, samples, note)."""
    busy = sum(lat)
    item, kind_measured = ITEM_NAMES[workload]
    out = [("setup_s", setup, "s", SETUP_PROBES, "median of fresh-interpreter set-ups")]
    if workload == "verify-all":
        out.append(("points_per_s", None, "1/s", 0, "not a points workload"))
    else:
        out.append(("points_per_s", items / busy, f"{item}/s", len(lat), f"{items} {item} in {busy:.3f} s of calls"))
    for kind in ("point", "sweep"):
        for pct in (50, 90):
            name = f"{kind}_ms_p{pct}"
            if kind != kind_measured:
                out.append((name, None, "ms", 0, f"not measured on {workload}"))
            elif pct == 50:
                out.append((name, statistics.median(lat) * 1e3, "ms", len(lat), "median"))
            else:
                value, beyond = percentile(lat, pct)
                out.append((name, None if value is None else value * 1e3, "ms", len(lat),
                            f"{beyond} samples beyond p{pct}"))
    if workload == "verify-all":
        out.append(("verify_s", statistics.median(lat), "s", len(lat), "median suite run"))
    else:
        out.append(("verify_s", None, "s", 0, f"not measured on {workload}"))
    return out


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run(args, workdir: str, sizes: dict | None = None) -> dict:
    """One benchmark run; prints the report lines and returns the result object.

    ``sizes`` overrides the workload's minimum sample counts (for tests).
    """
    import calibrate
    import spans
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    sizes = sizes or {}
    prov = provenance(args)
    notes = list(NOTES)
    if args.workload == "verify-all":
        notes.append("tabounds.verify fixes its own internal seeds; the benchmark seed does not reach them")
    lines = [f"# tabounds benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "# provenance: " + json.dumps(prov, sort_keys=True)]
    lines += [f"# note: {n}" for n in notes]
    cal = calibrate.Calibrator()

    if args.trace == 0:
        setup_raw, setup = measure_setup(args, cal)
        wl = _setup(wl_cls, args.seed, workdir, sizes)
        tally = run_ops(wl, cal, args.seconds)
        tallies = [tally]
        peak = tally.peak_rss_mb
        scaled = scaled_latencies(tally, cal)
        items = sum(tally.items)
        metrics = {
            "setup_s": setup,
            "op_ms_p50": statistics.median(scaled) * 1e3,
            "items_per_s": items / sum(scaled),
            "peak_rss_mb": peak,
        }
        units = dict(END_TO_END)
        samples = {"setup_s": SETUP_PROBES, "op_ms_p50": len(tally), "items_per_s": len(tally), "peak_rss_mb": 1}
        table = [
            (name, value, ref[1], unit, n, note)
            for (name, value, unit, n, note), ref in zip(
                named_figures(args.workload, items, list(tally.latency), setup_raw),
                named_figures(args.workload, items, scaled, setup),
            )
        ]
        frac = tally.failed / tally.attempted
        table.append(("fail_frac", frac, frac, "frac", tally.attempted,
                      f"{tally.failed} of {tally.attempted} failed"))
        table.append(("peak_rss_mb", peak, peak, "MiB", 1, "ru_maxrss of the workload process at the end of the timed loop"))
        lines.append("# end-to-end: name, as measured, at reference speed, unit, samples, note")
        lines += [f"{n:<13} {_fmt(v):>11} {_fmt(r):>11} {u:<9} n={k:<6} {note}" for n, v, r, u, k, note in table]
        item, _ = ITEM_NAMES[args.workload]
        lines.append(f"# bounded metrics: setup_s, op_ms_p50 (median of one operation) and items_per_s "
                     f"({item}) at reference speed; peak_rss_mb as measured; reference kernel took "
                     f"{min(cal.rep_ms):.3f}-{max(cal.rep_ms):.3f} ms over {len(cal.rep_ms)} bursts")
        keys = ("name", "value", "value_ref_speed", "unit", "samples", "note")
        extra = {"figures": [dict(zip(keys, row)) for row in table], "calibration_ms": cal.rep_ms}
        if hasattr(wl, "oracle_checked"):
            lines.append(f"# oracle: {wl.oracle_checked} outputs checked against independent references")
        if hasattr(wl, "rows_short_circuit"):
            extra["short_circuit_frac"] = wl.rows_short_circuit / max(wl.rows_written, 1)
            lines.append(f"# short-circuit: {wl.rows_short_circuit} of {wl.rows_written} rows "
                         f"({extra['short_circuit_frac']:.1%}) lie at eta = 1 or in the entanglement-breaking "
                         f"regime, where report() evaluates no closed form")
    else:
        traced_wl = _setup(wl_cls, args.seed, workdir, sizes)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            tally = run_ops(traced_wl, cal, args.seconds / 2, tracer=tracer, use_min=False)
        tracer.retime(cal.clock)
        plain = _setup(wl_cls, args.seed, workdir, sizes)
        plain_tally = run_ops(plain, cal, limit=len(tally))
        tallies = [plain_tally, tally]
        ops = len(tally)
        overhead = sum(scaled_latencies(tally, cal)) / sum(scaled_latencies(plain_tally, cal)) - 1.0
        counts = {
            "cli.rows_written": getattr(traced_wl, "rows_written", 0) / ops,
            "cli.bytes_written": getattr(traced_wl, "bytes_written", 0) / ops,
            "verify.checks": getattr(traced_wl, "checks", 0) / ops,
            "verify.checks_failed": getattr(traced_wl, "checks_failed", 0) / ops,
        }
        metrics = spans.layer_metrics(tracer, ops, counts, overhead)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        samples = dict.fromkeys(metrics, ops)
        spans_path = OUT_DIR / f"spans-{args.workload}.tsv.gz"
        tracer.write(str(spans_path))
        share = spans.share_under(tracer, "bounds.report", ("optimize", "qubit", "linalg"))
        lines.append(f"# traced {ops} operations ({len(tracer)} spans, written to {spans_path.name}); "
                     f"values are per operation unless the unit says otherwise; times as measured")
        lines.append(f"# inside bounds.report, optimize+qubit+linalg self time is {share:.1%} of its time")
        lines += [f"{n:<44} {metrics[n]:>14.6g} {units[n]}" for n, _, _ in spans.PER_LAYER]
        extra = {"spans_file": spans_path.name, "traced_ops": ops}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = [e for t in tallies for e in t.errors][: Tally.MAX_ERRORS]
    lines.append(f"# {failed} of {attempted} operations failed" + (f"; first: {errors[0]}" if errors else ""))
    result = {
        "correct": not any(t.wrong for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in metrics},
    }
    full = dict(result, provenance=prov, notes=notes, samples=samples, errors=errors, **extra)
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("qubit-points", "gaussian-csv", "verify-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        prepare()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            _setup(workloads.WORKLOADS[args.workload], args.seed, workdir, {})
            print("ready", flush=True)
            return 0
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
