"""Self-check suite: green on the quick grid, red under fault injection."""

from qvint import census as census_mod
from qvint.errors import ContractError
from qvint.verify import run_all


def test_quick_suite_all_green():
    results = run_all(quick=True)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(results) >= 40
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert all(r.detail for r in results)


def test_corrupt_modulus_fails_only_the_irreducibility_check():
    results = run_all(quick=True, corrupt_modulus=True)
    failed = {r.name for r in results if not r.ok}
    assert failed == {"modulus-irreducible-q4"}


def test_a_raising_check_fails_alone(monkeypatch):
    def broken(domain, k):
        raise ContractError("bound withheld")

    monkeypatch.setattr(census_mod, "chebyshev_zero_bound", broken)
    results = run_all(quick=True)
    assert len(results) == 47
    failed = [r for r in results if not r.ok]
    assert failed == [r for r in results if r.name.startswith("chebyshev-")]
    assert failed
    assert all(r.detail == "ContractError: bound withheld" for r in failed)
