"""The package's public name list and the README's code."""

import json
import pathlib
import re
import subprocess
import sys

import tabounds
from support import child_env


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from tabounds import *", namespace)  # raises on a stale __all__ entry
    assert sorted(set(tabounds.__all__)) == sorted(tabounds.__all__)
    assert all(namespace[name] is getattr(tabounds, name) for name in tabounds.__all__)


def test_package_name_reads_the_defining_module_on_each_access(monkeypatch):
    # Nothing is cached in the package namespace: a patch of the defining
    # module (or a tracer's wrapper) is what the package name gives.
    from tabounds import bounds

    stand_in = object()
    monkeypatch.setattr(bounds, "report", stand_in)
    assert tabounds.report is stand_in
    monkeypatch.undo()
    assert tabounds.report is bounds.report
    assert "report" not in vars(tabounds)


def test_dir_lists_every_public_name_without_loading_numpy():
    child = (
        "import json, sys\n"
        "sys.modules['numpy'] = None  # every import of numpy now raises ImportError\n"
        "import tabounds\n"
        "print(json.dumps([dir(tabounds), tabounds.__all__]))\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", child], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    listed, public = json.loads(proc.stdout)
    assert listed == sorted(listed) and set(public) <= set(listed)


def test_readme_python_blocks_run():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks  # the quick start is there to be run
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
