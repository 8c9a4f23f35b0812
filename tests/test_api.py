"""The package's public name list and the README's code."""

import pathlib
import re

import tabounds


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from tabounds import *", namespace)  # raises on a stale __all__ entry
    assert sorted(set(tabounds.__all__)) == sorted(tabounds.__all__)
    assert all(namespace[name] is getattr(tabounds, name) for name in tabounds.__all__)



def test_readme_python_blocks_run():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks  # the quick start is there to be run
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
