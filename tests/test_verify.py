"""Every registered property check runs as its own test."""

import pytest

from tabounds import verify


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_registered_check(name):
    r = verify.CHECKS[name]()
    assert r.name == name
    assert r.passed, f"worst {r.worst:.3e} > tol {r.tolerance:g} {r.detail}"


def test_a_check_gives_the_same_result_alone_or_in_its_suite():
    alone = [verify.CHECKS[name]() for name in verify.CHECKS if name.startswith("gaussian/")]
    assert verify.run_suite("gaussian") == alone
