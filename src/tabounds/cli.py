"""Command-line front end: point reports, CSV parameter sweeps, verification.

Exit codes: 0 success, 1 argument error, 2 verification failure, 3 I/O error.
Output is deterministic: reals are rendered with 12 significant digits and
infinities as the token "inf", so identical flags give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import bounds, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

MAX_GRID_POINTS = 10**6

QUBIT_CSV_HEADER = "x,lower,upper_extended,best_upper,gap"
GAUSSIAN_CSV_HEADER = "x,lower,upper_extended,upper_twist,upper_plob,upper_swat,best_upper,gap"
GRID_CSV_HEADER = "eta,noise,gap"


class UsageError(Exception):
    """Argument problem; message names the offending flag."""


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable with inclusive endpoints, plus the fixed parameter."""

    variable: str        # "eta" or "noise"
    start: float
    stop: float
    step: float
    fixed_value: float
    channel_kind: str

    def grid(self) -> list[float]:
        return _grid(self.start, self.stop, self.step)


def _grid(start: float, stop: float, step: float) -> list[float]:
    slack = 1e-9
    count = int(math.floor((stop - start) / step + slack)) + 1
    xs = [start + k * step for k in range(count)]
    # start + k*step can land an ulp past the inclusive stop; emit stop itself.
    if abs(xs[-1] - stop) <= slack * step:
        xs[-1] = stop
    return xs


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return format(float(x), ".12g")


def render_report_json(r: bounds.BoundsReport) -> str:
    def v(x):
        return f'"{_fmt(x)}"' if math.isinf(x) else _fmt(x)

    uppers = ", ".join(f'"{name}": {v(val)}' for name, val in r.uppers.items())
    return (
        f'{{"kind": "{r.channel_kind}", "eta": {v(r.eta)}, "noise": {v(r.noise)}, '
        f'"lower": {v(r.lower)}, "uppers": {{{uppers}}}, '
        f'"best_upper": {v(r.best_upper)}, "gap": {v(r.gap)}}}'
    )


def rerender_report_json(text: str) -> str:
    """Parse a JSON report and render it again (byte-stable round trip)."""
    obj = json.loads(text)

    def v(x):
        if isinstance(x, str):
            return f'"{x}"'
        return _fmt(x)

    uppers = ", ".join(f'"{name}": {v(val)}' for name, val in obj["uppers"].items())
    return (
        f'{{"kind": "{obj["kind"]}", "eta": {v(obj["eta"])}, "noise": {v(obj["noise"])}, '
        f'"lower": {v(obj["lower"])}, "uppers": {{{uppers}}}, '
        f'"best_upper": {v(obj["best_upper"])}, "gap": {v(obj["gap"])}}}'
    )


def render_report_text(r: bounds.BoundsReport) -> str:
    lines = [
        f"channel:    {r.channel_kind}",
        f"eta:        {_fmt(r.eta)}",
        f"noise:      {_fmt(r.noise)}",
        f"lower:      {_fmt(r.lower)}",
    ]
    lines.extend(f"upper[{name}]: {_fmt(val)}" for name, val in r.uppers.items())
    lines.append(f"best_upper: {_fmt(r.best_upper)}")
    lines.append(f"gap:        {_fmt(r.gap)}")
    return "\n".join(lines)


def _validate_params(kind: str, eta: float, noise: float) -> None:
    if not 0.0 <= eta <= 1.0:  # also rejects nan
        raise UsageError(f"--eta must lie in [0, 1], got {eta!r}")
    if not noise >= 0.0:  # also rejects nan; +inf is allowed for gaussian
        raise UsageError(f"--noise must be nonnegative, got {noise!r}")
    if kind == bounds.QUBIT and noise > 0.5:
        raise UsageError(f"--noise must lie in [0, 1/2] for the qubit channel, got {noise!r}")


def _parse_sweep(text: str) -> tuple[str, float, float, float]:
    try:
        variable, _, rng = text.partition("=")
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise UsageError(
            f"--sweep expects var=start:stop:step (e.g. eta=0.5:0.99:0.01), got {text!r}"
        ) from None
    if variable not in ("eta", "noise"):
        raise UsageError(f"--sweep variable must be eta or noise, got {variable!r}")
    if not start < stop:
        raise UsageError(f"--sweep needs start < stop, got {text!r}")
    if not step > 0.0:
        raise UsageError(f"--sweep needs a positive step, got {text!r}")
    if (stop - start) / step > MAX_GRID_POINTS:
        raise UsageError(f"--sweep grid exceeds {MAX_GRID_POINTS} points: {text!r}")
    return variable, start, stop, step


def cmd_bounds(args) -> int:
    _validate_params(args.kind, args.eta, args.noise)
    r = bounds.report(args.kind, args.eta, args.noise)
    if args.format == "json":
        print(render_report_json(r))
    else:
        print(render_report_text(r))
    return EXIT_OK


def _sweep_rows(spec: SweepSpec) -> list[str]:
    header = QUBIT_CSV_HEADER if spec.channel_kind == bounds.QUBIT else GAUSSIAN_CSV_HEADER
    rows = [header]
    for x in spec.grid():
        eta, noise = (x, spec.fixed_value) if spec.variable == "eta" else (spec.fixed_value, x)
        r = bounds.report(spec.channel_kind, eta, noise)
        cells = [x, r.lower, r.uppers["extended"]]
        if spec.channel_kind == bounds.GAUSSIAN:
            cells.extend([r.uppers["twist"], r.uppers["plob"], r.uppers["swat"]])
        cells.extend([r.best_upper, r.gap])
        rows.append(",".join(_fmt(c) for c in cells))
    return rows


def _grid_rows(kind: str, etas: list[float], noises: list[float]) -> list[str]:
    rows = [GRID_CSV_HEADER]
    for eta in etas:
        for noise in noises:
            r = bounds.report(kind, eta, noise)
            rows.append(",".join((_fmt(eta), _fmt(noise), _fmt(r.gap))))
    return rows


def cmd_sweep(args) -> int:
    sweeps = [_parse_sweep(text) for text in args.sweep]
    if len(sweeps) > 2:
        raise UsageError("--sweep may be given at most twice (1-D or eta x noise grid)")

    if len(sweeps) == 2:
        by_var = {v: (a, b, c) for v, a, b, c in sweeps}
        if set(by_var) != {"eta", "noise"}:
            raise UsageError("a 2-D sweep needs one --sweep for eta and one for noise")
        for var in ("eta", "noise"):
            _validate_sweep_range(args.kind, var, *by_var[var])
        rows = _grid_rows(args.kind, _grid(*by_var["eta"]), _grid(*by_var["noise"]))
    else:
        variable, start, stop, step = sweeps[0]
        _validate_sweep_range(args.kind, variable, start, stop, step)
        fixed_flag = "--noise" if variable == "eta" else "--eta"
        fixed = args.noise if variable == "eta" else args.eta
        if fixed is None:
            raise UsageError(f"{fixed_flag} is required to fix the non-swept parameter")
        eta, noise = (start, fixed) if variable == "eta" else (fixed, start)
        _validate_params(args.kind, eta, noise)
        spec = SweepSpec(variable, start, stop, step, fixed, args.kind)
        rows = _sweep_rows(spec)

    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(rows) + "\n")
    except OSError as exc:
        print(f"error: cannot write --out {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _validate_sweep_range(kind: str, variable: str, start: float, stop: float, step: float) -> None:
    if variable == "eta" and not (0.0 <= start and stop <= 1.0):
        raise UsageError(f"--sweep eta range must stay within [0, 1], got {start}:{stop}")
    if variable == "noise":
        if start < 0.0:
            raise UsageError(f"--sweep noise range must be nonnegative, got {start}:{stop}")
        if kind == bounds.QUBIT and stop > 0.5:
            raise UsageError(f"--sweep noise range must stay within [0, 1/2] for qubit, got {start}:{stop}")


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name:<{width}}  worst {r.worst: .3e}  (tol {r.tolerance:g})"
        if not r.passed and r.detail:
            line += f"  at {r.detail}"
        print(line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results)} checks, {len(results) - len(failed)} passed, {len(failed)} failed")
    if failed:
        first = failed[0]
        print(f"first failure: {first.name} {first.detail}".rstrip(), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tabounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print all capacity bounds for one channel")
    p_bounds.add_argument("kind", choices=(bounds.QUBIT, bounds.GAUSSIAN))
    p_bounds.add_argument("--eta", type=float, required=True)
    p_bounds.add_argument("--noise", type=float, required=True)
    p_bounds.add_argument("--format", choices=("json", "text"), default="text")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="write a CSV of bounds over a parameter grid")
    p_sweep.add_argument("kind", choices=(bounds.QUBIT, bounds.GAUSSIAN))
    p_sweep.add_argument(
        "--sweep",
        action="append",
        required=True,
        metavar="VAR=START:STOP:STEP",
        help="swept variable and inclusive range; give twice for an eta x noise grid",
    )
    p_sweep.add_argument("--eta", type=float, help="fixed eta when sweeping noise")
    p_sweep.add_argument("--noise", type=float, help="fixed noise when sweeping eta")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the seeded property suites")
    p_verify.add_argument("suite", nargs="?", default="all", choices=sorted(verify.SUITES))
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
