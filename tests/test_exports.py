"""The package namespace is the union of the public modules' export lists."""

import circspec
from circspec import fourier, harness, linsolve, ode, operators, rhp, spectrum

MODULES = (fourier, harness, linsolve, ode, operators, rhp, spectrum)


def test_all_is_union_of_module_lists():
    union = set().union(*(m.__all__ for m in MODULES))
    assert set(circspec.__all__) == union
    assert len(circspec.__all__) == len(union)
    assert {"ERROR_FLOOR", "solve_checked"} <= union


def test_every_name_resolves_to_its_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(circspec, name) is getattr(m, name)
