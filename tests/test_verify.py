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
    def broken(domain, k, *, census=None):
        raise ContractError("bound withheld")

    monkeypatch.setattr(census_mod, "chebyshev_zero_bound", broken)
    results = run_all(quick=True)
    assert len(results) == 47
    failed = [r for r in results if not r.ok]
    assert failed == [r for r in results if r.name.startswith("chebyshev-")]
    assert failed
    assert all(r.detail == "ContractError: bound withheld" for r in failed)


def test_corrupt_hit_counts_fail_the_second_moment_checks(monkeypatch):
    real = census_mod._line_transform

    def corrupt(domain):
        hits = real(domain).copy()
        hits[1] = (hits[1] + 1) % (domain.size + 1)
        return hits

    monkeypatch.setattr(census_mod, "_line_transform", corrupt)
    results = run_all(quick=True)
    second_moment = [r for r in results if r.name.startswith("second-moment-")]
    assert len(second_moment) == 4
    assert all(not r.ok and r.detail.endswith(", N(t) tally differs from the direct count")
               for r in second_moment)
    # The transform census and the picker read the same N(t), so the walk
    # comparison and the k=2 transversal catch it too; nothing else does.
    failed = {r.name for r in results if not r.ok}
    assert failed == ({r.name for r in second_moment}
                      | {r.name.replace("second-moment-", "census-totals-") for r in second_moment}
                      | {"pipeline-equivalence-vand-q5-d3-k2"})
