"""Command-line front end: point reports, CSV parameter sweeps, verification.

Exit codes: 0 success, 1 argument error, 2 verification failure, 3 I/O error.
Output is deterministic: reals are rendered with 12 significant digits and
infinities as the token "inf" (the one ``NUMBER_FORMAT``), so identical flags
give identical bytes.  ``sweep`` takes its reports from ``bounds.reports``,
which validates each axis value and takes its terms once.  A 1-D sweep
renders each CSV row with one ``%`` template built from ``NUMBER_FORMAT``; a
2-D sweep renders each eta and each noise once and each row's gap alone.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import bounds

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

MAX_GRID_POINTS = 10**6

GRID_CSV_HEADER = "eta,noise,gap"

# The one rendering of a real: 12 significant digits, and "inf", "-inf" and
# "nan" for the non-finite ones.  ``%`` and ``format(x, ".12g")`` share
# CPython's float formatter, so both give the same bytes.
NUMBER_FORMAT = "%.12g"


class UsageError(ValueError):
    """Argument problem; message names the offending flag."""


def _real(text: str) -> float:
    """A flag's real value; ``+ 0.0`` turns a parsed -0.0 into 0.0, so it echoes as 0."""
    return float(text) + 0.0


def _fmt(x: float) -> str:
    return NUMBER_FORMAT % float(x)


def _row_template(cells: int) -> str:
    """The ``%`` template of a CSV row of ``cells`` reals, each rendered as ``_fmt`` renders it."""
    return ",".join([NUMBER_FORMAT] * cells)


def _report_dict(r: bounds.BoundsReport) -> dict:
    return {
        "kind": r.channel_kind, "eta": r.eta, "noise": r.noise, "lower": r.lower,
        "uppers": r.uppers, "best_upper": r.best_upper, "gap": r.gap,
    }


def render_json(obj) -> str:
    """Render a report or check dict, or its parsed JSON, with reals as in ``_fmt``.

    Non-finite reals become the strings "inf", "-inf" and "nan"; keys,
    strings and booleans are written by ``json.dumps`` and key order is kept,
    so ``render_json(json.loads(render_json(d)))`` reproduces the bytes.
    """
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {render_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (str, bool)):
        return json.dumps(obj)
    return _fmt(obj) if math.isfinite(obj) else f'"{_fmt(obj)}"'


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


def _validate(kind: str, eta: float, noise: float, swept=()) -> None:
    """bounds.validate, with the message naming the flag that set the bad value."""
    try:
        bounds.validate(kind, eta, noise)
    except ValueError as exc:
        param = str(exc).split()[0]
        raise UsageError(f"--sweep {exc}" if param in swept else f"--{exc}") from None


def _parse_sweep(text: str, kind: str) -> tuple[str, float, float, float]:
    try:
        variable, _, rng = text.partition("=")
        start, stop, step = map(_real, rng.split(":"))
    except ValueError:
        raise UsageError(
            f"--sweep expects var=start:stop:step (e.g. eta=0.5:0.99:0.01), got {text!r}"
        ) from None
    if variable not in ("eta", "noise"):
        raise UsageError(f"--sweep variable must be eta or noise, got {variable!r}")
    if not start < stop:
        raise UsageError(f"--sweep needs start < stop, got {text!r}")
    if not 0.0 < step < math.inf:  # an infinite step makes a grid of one nan
        raise UsageError(f"--sweep needs a positive finite step, got {text!r}")
    # The start's domain before the point count, for which stop - start can
    # overflow to inf; eta = 1 and noise = 0 are valid in either channel family.
    eta, noise = (start, 0.0) if variable == "eta" else (1.0, start)
    _validate(kind, eta, noise, swept=(variable,))
    return variable, start, stop, step


def cmd_bounds(args) -> int:
    _validate(args.kind, args.eta, args.noise)
    r = bounds.report(args.kind, args.eta, args.noise)
    if args.format == "json":
        print(render_json(_report_dict(r)))
    else:
        print(render_report_text(r))
    return EXIT_OK


def cmd_sweep(args) -> int:
    sweeps = {}
    for text in args.sweep:
        variable, start, stop, step = _parse_sweep(text, args.kind)
        sweeps[variable] = (start, stop, step)
    if len(args.sweep) > 2:
        raise UsageError("--sweep may be given at most twice (1-D or eta x noise grid)")
    if len(args.sweep) != len(sweeps):
        raise UsageError("a 2-D sweep needs one --sweep for eta and one for noise")

    # Each axis is its swept grid or the one fixed value.
    axes, ends = {}, {}
    for var in ("eta", "noise"):
        fixed = getattr(args, var)
        if var in sweeps:
            if fixed is not None:
                raise UsageError(f"--{var} cannot be given with --sweep {var}")
            ends[var] = sweeps[var][:2]
        else:
            if fixed is None:
                raise UsageError(f"--{var} is required to fix the non-swept parameter")
            axes[var] = [fixed]
            ends[var] = (fixed, fixed)
    # The points bounds.grid would build, counted before it builds any.  A
    # float: an overflowing stop - start or product reads inf, and %.13g
    # writes in full every product of two axes of at most 10^6 + 1 points.
    points = 1.0
    for axis in sweeps.values():
        try:
            points *= bounds.grid_count(*axis)
        except OverflowError:
            points = math.inf
    if points > MAX_GRID_POINTS:
        raise UsageError(f"--sweep grid of {points:.13g} points exceeds {MAX_GRID_POINTS} points")
    for var, axis in sweeps.items():
        axes[var] = bounds.grid(*axis)
    # The valid domain is a box, so its lowest and highest corners bound every point.
    for i in (0, 1):
        _validate(args.kind, ends["eta"][i], ends["noise"][i], swept=sweeps)

    reports = bounds.reports(args.kind, axes["eta"], axes["noise"])
    if len(sweeps) == 2:
        # Each axis value is rendered once; product() pairs the cells in the
        # row-major order in which reports() yields the points.
        eta_cells = [_fmt(eta) + "," for eta in axes["eta"]]
        noise_cells = [_fmt(noise) + "," for noise in axes["noise"]]
        rows = [GRID_CSV_HEADER]
        rows += [
            eta_cell + noise_cell + NUMBER_FORMAT % r.gap
            for (eta_cell, noise_cell), r in zip(itertools.product(eta_cells, noise_cells), reports)
        ]
    else:
        # The 1-D columns take their names from the report's own uppers, and
        # x runs over the swept axis, as the other axis has one value.
        first = next(reports)
        row = _row_template(len(first.uppers) + 4)
        rows = [",".join(("x", "lower", *(f"upper_{name}" for name in first.uppers), "best_upper", "gap"))]
        (swept,) = sweeps
        rows += [
            row % (x, r.lower, *r.uppers.values(), r.best_upper, r.gap)
            for x, r in zip(axes[swept], itertools.chain((first,), reports))
        ]

    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(rows) + "\n")
    except OSError as exc:
        print(f"error: cannot write --out {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # the oracle layer: only this command loads numpy

    timings: verify.Timings = {}
    results = verify.run_suite(args.suite, timings)  # an unknown suite raises ValueError
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        for r in results:
            print(render_json({
                "name": r.name, "passed": r.passed, "worst": r.worst, "tolerance": r.tolerance,
                "detail": r.detail, "elapsed_s": timings[r.name],
            }))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = f"[{status}] {r.name:<{width}}  worst {r.worst: .3e}  (tol {r.tolerance:g})"
            if not r.passed and r.detail:
                line += f"  at {r.detail}"
            print(line)
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
    parser = _Parser(
        prog="tabounds",
        description="Quantum-capacity bounds of the qubit and bosonic thermal attenuators: "
        "point reports, CSV sweeps and seeded verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print all capacity bounds for one channel")
    p_bounds.add_argument("kind", choices=(bounds.QUBIT, bounds.GAUSSIAN))
    p_bounds.add_argument("--eta", type=_real, required=True)
    p_bounds.add_argument("--noise", type=_real, required=True)
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
    p_sweep.add_argument("--eta", type=_real, help="fixed eta when sweeping noise")
    p_sweep.add_argument("--noise", type=_real, help="fixed noise when sweeping eta")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the seeded property suites")
    p_verify.add_argument("suite", nargs="?", default="all")
    p_verify.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="json: one object per check and line, with its wall time in elapsed_s",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
