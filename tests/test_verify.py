"""Self-check suite: green on the quick grid, red under fault injection."""

from qvint import census as census_mod, simulator
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
    # comparison and the k=2 sweep's two verdicts catch it too; nothing else does.
    assert len(results) == 47
    failed = {r.name for r in results if not r.ok}
    assert failed == ({r.name for r in second_moment}
                      | {r.name.replace("second-moment-", "census-totals-") for r in second_moment}
                      | {"pipeline-equivalence-vand-q5-d3-k2",
                         "success-probability-vand-q5-d3-k2"})


def test_a_failing_census_fails_its_dependents_and_keeps_every_name(monkeypatch):
    passing = [r.name for r in run_all()]
    real = census_mod.enumerate_census

    def withheld(domain, k):
        if (domain.params.q, domain.n, k) == (5, 4, 2):
            raise ContractError("census withheld")
        return real(domain, k)

    monkeypatch.setattr(census_mod, "enumerate_census", withheld)
    results = run_all()
    assert len(results) == 109
    assert [r.name for r in results] == passing
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == [
        "census-totals-vand-q5-d3-k2",
        "good-dichotomy-vand-q5-d3-k2",
        "second-moment-vand-q5-d3-k2",
        "chebyshev-vand-q5-d3-k2",
        "pipeline-equivalence-vand-q5-d3-k2",
        "success-probability-vand-q5-d3-k2",
        "state-family-rank-vand-q5-d3-k2",
        "image-monotonicity-vand-q5-d3",
    ]
    assert all(r.detail == "ContractError: census withheld" for r in failed)


def test_a_raising_sweep_fails_both_of_its_names(monkeypatch):
    passing = [r.name for r in run_all(quick=True)]

    def broken(state, secret):
        raise ContractError("probability withheld")

    monkeypatch.setattr(simulator, "success_probability", broken)
    results = run_all(quick=True)
    assert len(results) == 47
    assert [r.name for r in results] == passing
    failed = [r for r in results if not r.ok]
    assert failed == [r for r in results
                      if r.name.startswith(("pipeline-equivalence-", "success-probability-"))]
    assert len(failed) == 8
    assert all(r.detail == "ContractError: probability withheld" for r in failed)
