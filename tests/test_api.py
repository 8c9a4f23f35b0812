"""The package's public name list."""

import tabounds


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from tabounds import *", namespace)  # raises on a stale __all__ entry
    assert sorted(set(tabounds.__all__)) == sorted(tabounds.__all__)
    assert all(namespace[name] is getattr(tabounds, name) for name in tabounds.__all__)
