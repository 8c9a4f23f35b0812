"""Golden bytes of fixed `bounds` and `sweep` invocations, made without numpy.

Each entry pins the exact stdout (bounds) or CSV file (sweep) by length and
sha256, so any refactor of the rendering or grid code must reproduce the
output byte for byte.  All entries run in one child interpreter in which
numpy cannot be imported and every warning is an error, so the same run
guards that the report path needs only the standard library.
"""

import hashlib
import json
import math
import random
import subprocess
import sys

import pytest

from support import BOSONIC_BOUNDS, child_env
from tabounds import bounds
from tabounds.bounds import QubitAttenuatorParams, coherent_information_diagonal, report

GOLDEN = [
    (("bounds", "gaussian", "--eta", "0.9", "--noise", "0.1", "--format", "json"),
     231, "4a31e2f52061c6724f85d9ef1033a03a7469d4f1cd5049dc6b828cf60ee24ccc"),
    (("bounds", "gaussian", "--eta", "0.9", "--noise", "0.1", "--format", "text"),
     244, "d2a61833fb3eeb70b44978ff2bc0744eb679a7cccf0019d90ef66519ff44ead3"),
    (("bounds", "qubit", "--eta", "0.95", "--noise", "0.01", "--format", "json"),
     162, "7f00196198c20fe111d4e31bbf89c3b7f6a13dc966aaf5140a6ca414918a7449"),
    (("bounds", "qubit", "--eta", "0.95", "--noise", "0.01", "--format", "text"),
     163, "eeef1184c7b45d5da8e9eb6048041027d3346c611f26a6cccf0ec71f7ffa647b"),
    (("bounds", "gaussian", "--eta", "1", "--noise", "0.2", "--format", "json"),
     169, "7cc0248d0bdbdea0b094dcb2c24224f4e53099d990c97fa166ad1037bd6b4163"),
    (("bounds", "gaussian", "--eta", "0.9", "--noise", "inf", "--format", "json"),
     149, "2af91b35280e02958fb4c099a43b9a287693c168ece02af60620ce83136f7568"),
    (("sweep", "gaussian", "--sweep", "eta=0.5:0.99:0.01", "--noise", "0.1"),
     4996, "4ba50cbf57c49defee7ac3125f12c67e312a4f26084e2af9eb0976b9a85ab7df"),
    (("sweep", "qubit", "--sweep", "eta=0.5:0.95:0.01", "--noise", "0.01"),
     2999, "6882bed07288973481c4d7c32da84f8fb95e36dce99544a05142515807d27d1b"),
    (("sweep", "gaussian", "--sweep", "noise=0:0.5:0.1", "--eta", "0.8"),
     617, "aba526cb2546b8dbf4d96e6bfd0413b863f83a3f3211f7d3e61116feebcc4877"),
    # The row "0.9,4,6.40685300763e-16" is the 50-digit twist bound at the
    # double nearest 0.9 (it read "0.9,4,0" when 1 - eta' was computed by
    # subtracting a rounded eta' from 1).
    (("sweep", "gaussian", "--sweep", "eta=0.5:0.99:0.01", "--sweep", "noise=0:5:0.1"),
     38261, "c8439f8153bafe6b1553cb0dc7b26efe2b53491b87bc684083a1f4ba88d48130"),
    (("sweep", "gaussian", "--sweep", "eta=0.09:1.0:0.07", "--noise", "0.1"),
     952, "c8fff71f17b53300ac4be5d01444134f704ee33b7e1ba785c472e79378166f5b"),
    # The eta = 1 row is exactly "1,1,1,1,0": both qubit bounds are pinned to 1
    # there (it read 1,1,1,1,2.22044604925e-16 when the two maximizations ran).
    (("sweep", "qubit", "--sweep", "eta=0.6:1.0:0.05", "--noise", "0.2"),
     554, "6266c88b60e3a231d87aa9681aae3aaad6860ea3cee049b5d626d61092af7a9f"),
    # Recorded while the qubit bounds still scanned all 129 grid points: the
    # grid search must give these bytes too, fallback points included.
    (("sweep", "qubit", "--sweep", "eta=0.5:0.99:0.01", "--sweep", "noise=0:0.5:0.01"),
     61705, "f00c7f33b4ddbd58f6e7fc605f853df52b94cffa45d7bc91f4296a3b0d669a09"),
    # An eta axis ending at the identity channel (eta = 1, every bound "inf")
    # and a noise axis crossing the entanglement-breaking line N = eta/(1-eta).
    (("sweep", "gaussian", "--sweep", "eta=0.5:1.0:0.05", "--sweep", "noise=0:8:0.5"),
     2171, "bbfa46b58d250357bb78f5ca6fc41ccadc823274427eb35b2dedad9db8d71b99"),
    # A noise sweep through the exact boundary point N = 3 of eta = 0.75.
    (("sweep", "gaussian", "--sweep", "noise=0:6:0.25", "--eta", "0.75"),
     1073, "03af5bb20ba743d12149fae42623b90dc0c6c72f2f630de25ce75f89f58a983b"),
    # The gap map of demos/capacity_gap_map.py: 100 x 101 points, 3,681 of them entanglement-breaking.
    (("sweep", "gaussian", "--sweep", "eta=0.5:0.995:0.005", "--sweep", "noise=0:5:0.05"),
     164944, "37b8be4d2606eb1bf0764f91214866eb7f915ea848fc98771afc9e74dccaee62"),
]


REPORT_CALLS = [("gaussian", 0.9, 0.1), ("qubit", 0.9, 0.1)]
# The repr of report(*args) for each REPORT_CALLS entry, recorded as a literal.
REPORT_REPRS = [
    "BoundsReport(channel_kind='gaussian', eta=0.9, noise=0.1, lower=2.686478315828648, uppers={"
    "'extended': 3.6533716870559774, 'twist': 3.0163018123291008, 'plob': 2.8536817186182026, "
    "'swat': 3.0324214776923775}, best_upper=2.8536817186182026, gap=0.1672034027895548)",
    "BoundsReport(channel_kind='qubit', eta=0.9, noise=0.1, lower=0.683790147378901, uppers={"
    "'extended': 0.8778100643954474}, best_upper=0.8778100643954474, gap=0.19401991701654642)",
]

# Runs each argv through cli.main and each REPORT_CALLS entry through
# tabounds.report, printing the exit codes and stdout texts, then the reprs.
_NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import tabounds
from tabounds import cli
calls, reports = json.loads(sys.argv[1])
results = []
for argv in calls:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([cli.main(argv), out.getvalue()])
print(json.dumps([results, [repr(tabounds.report(*args)) for args in reports]]))
"""


@pytest.fixture(scope="module")
def numpy_free_run(tmp_path_factory):
    """GOLDEN argv -> (exit code, output bytes), and the REPORT_CALLS reprs,
    all from one child run with numpy blocked; sweeps write under tmp."""
    tmp = tmp_path_factory.mktemp("golden")
    csvs = [tmp / f"{i}.csv" if argv[0] == "sweep" else None for i, (argv, _, _) in enumerate(GOLDEN)]
    calls = [[*argv, *(["--out", str(csv)] if csv else [])] for (argv, _, _), csv in zip(GOLDEN, csvs)]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _NUMPY_FREE_CHILD, json.dumps([calls, REPORT_CALLS])],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    results, reprs = json.loads(proc.stdout)
    outputs = {
        argv: (code, csv.read_bytes() if csv else text.encode("utf-8"))
        for (argv, _, _), csv, (code, text) in zip(GOLDEN, csvs, results)
    }
    return outputs, reprs


@pytest.mark.parametrize("argv,length,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_output_bytes_are_pinned(argv, length, digest, numpy_free_run):
    outputs, _ = numpy_free_run
    code, data = outputs[argv]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, length, digest)


def test_report_without_numpy_matches_in_process(numpy_free_run):
    _, reprs = numpy_free_run
    assert reprs == REPORT_REPRS
    assert [repr(report(*args)) for args in REPORT_CALLS] == REPORT_REPRS


# Bit-identity of the qubit closed form, pinned through ``repr`` so that a
# value turning from -0.0 into 0.0 (or moving by one ulp) changes the digest.
# The digests are the same on Python 3.10 to 3.13.
def _diagonal_corpus_reprs():
    rng = random.Random(20261018)
    edge_p = (0.0, 1.0, 1e-300, 1.0 - 1e-16)
    edge_eta = (math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0))
    edge_noise = (0.0, 0.5)
    points = [(p, eta, n) for p in edge_p for eta in edge_eta for n in edge_noise]
    for _ in range(2000):
        p = rng.choice(edge_p) if rng.random() < 0.1 else rng.random()
        eta = rng.choice(edge_eta) if rng.random() < 0.1 else rng.uniform(0.5, 1.0)
        noise = rng.choice(edge_noise) if rng.random() < 0.1 else rng.uniform(0.0, 0.5)
        points.append((p, eta, noise))
    return [
        repr(coherent_information_diagonal(p, QubitAttenuatorParams(eta, n), variant))
        for p, eta, n in points
        for variant in ("direct", "extended")
    ]


def _qubit_report_grid_reprs():
    out = []
    for i in range(26):
        for j in range(11):
            r = report("qubit", 0.5 + i / 50, j / 20)
            out += [repr(r.lower), repr(r.uppers["extended"])]
    return out


REPR_PINS = [
    (_diagonal_corpus_reprs, "a787b23590908e8be23eca0b8dcc47ddb0196286bcd6af6f8522557ba898f5bc"),
    (_qubit_report_grid_reprs, "3cff5dcf061b81e166a96cf321151d1019d8b918ca0ce622b2e8055a412db4d6"),
]


@pytest.mark.parametrize("values,digest", REPR_PINS, ids=[f.__name__.strip("_") for f, _ in REPR_PINS])
def test_qubit_values_are_pinned_bit_for_bit(values, digest):
    assert hashlib.sha256("\n".join(values()).encode("ascii")).hexdigest() == digest


# Bit-identity of the bosonic closed forms, pinned the same way: the five
# public gauss_* functions and report("gaussian") over a seeded corpus whose
# edges come first.  The edges are the extremes of eta and N, N one ulp on
# each side of the entanglement-breaking line N = eta/(1-eta), and x =
# (1-eta)(1+N) one ulp on each side of both ends of plob's window [1/2, 2].
def _bosonic_corpus_reprs():
    rng = random.Random(20261019)
    edge_eta = (0.0, 5e-324, 1e-300, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0), 1.0)
    edge_noise = (0.0, 5e-324, 1e-310, 1e300, math.inf)

    def around(x):
        return (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))

    def line_and_window(eta):
        if eta == 1.0:
            return ()
        u = 1.0 - eta
        return (*around(eta / u), *around(0.5 / u - 1.0), *around(2.0 / u - 1.0))

    points = [(eta, n) for eta in edge_eta for n in edge_noise]
    for eta in (*edge_eta, 0.3, 0.6, 0.75, 0.9, 0.99):
        points += [(eta, n) for n in line_and_window(eta) if n >= 0.0]
    for _ in range(2000):
        eta = rng.choice(edge_eta) if rng.random() < 0.1 else rng.random()
        noise = rng.choice((
            rng.choice(edge_noise), rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-320.0, 300.0),
            rng.choice(line_and_window(eta) or edge_noise), rng.uniform(0.0, 1.0) * eta / (1.0 - eta or 1.0),
        ))
        points.append((eta, max(noise, 0.0)))
    fns = [getattr(bounds, name) for name in BOSONIC_BOUNDS]
    return [repr(v) for eta, n in points for v in (*(fn(eta, n) for fn in fns), report("gaussian", eta, n))]


def test_bosonic_values_are_pinned_bit_for_bit():
    digest = hashlib.sha256("\n".join(_bosonic_corpus_reprs()).encode("ascii")).hexdigest()
    assert digest == "aefafe3f53c6fd584bc80a5870be73c7fea97b77e8bb164f7e0c5e5b8aba0aed"
