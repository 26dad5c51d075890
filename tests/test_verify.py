"""Self-check suite: green on the quick grid, red under fault injection."""

import itertools

from qvint import census as census_mod, simulator, verify as verify_mod
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

    def broken(domain, k, transversal, flats):
        raise ContractError("probability withheld")

    monkeypatch.setattr(simulator, "_sweep", broken)
    results = run_all(quick=True)
    assert len(results) == 47
    assert [r.name for r in results] == passing
    failed = [r for r in results if not r.ok]
    assert failed == [r for r in results
                      if r.name.startswith(("pipeline-equivalence-", "success-probability-"))]
    assert len(failed) == 8
    assert all(r.detail == "ContractError: probability withheld" for r in failed)


def test_a_grid_build_error_fails_only_that_instance(monkeypatch):
    passing = [r.name for r in run_all()]
    real = verify_mod.build_vandermonde_domain

    def refused(params, d):
        if params.q == 7:
            raise ContractError("domain withheld")
        return real(params, d)

    monkeypatch.setattr(verify_mod, "build_vandermonde_domain", refused)
    results = run_all()
    assert len(results) == 109
    assert [r.name for r in results] == passing
    failed = [r for r in results if not r.ok]
    assert failed == [r for r in results if "vand-q7-d3" in r.name]
    assert len(failed) == 13
    assert all(r.detail == "ContractError: domain withheld" for r in failed)


def test_a_field_build_error_fails_only_that_field(monkeypatch):
    real = verify_mod.parse_field_spec

    def refused(spec):
        if spec == "8":
            raise ContractError("field withheld")
        return real(spec)

    monkeypatch.setattr(verify_mod, "parse_field_spec", refused)
    results = run_all()
    assert len(results) == 109
    failed = {r.name: r.detail for r in results if not r.ok}
    assert failed == dict.fromkeys(
        ("field-axioms-q8", "trace-character-q8", "modulus-irreducible-q8"),
        "ContractError: field withheld")


def test_a_permuted_transversal_fails_pipeline_equivalence(monkeypatch):
    real = census_mod.enumerate_census

    def permuted(domain, k):
        census = real(domain, k)
        # Reversed keys bypass the Transversal's own check: every amplitude
        # now sits at another pre-image's image point.
        object.__setattr__(census.transversal, "keys", census.transversal.keys[::-1])
        return census

    monkeypatch.setattr(census_mod, "enumerate_census", permuted)
    pipeline = [r for r in run_all(quick=True) if r.name.startswith("pipeline-equivalence-")]
    assert len(pipeline) == 4
    assert not any(r.ok for r in pipeline)


def test_a_transversal_off_the_image_fails_its_sweep(monkeypatch):
    real = census_mod.enumerate_census

    def off_image(domain, k):
        census = real(domain, k)
        if (domain.params.q, domain.n, k) == (3, 2, 1):
            keys = census.transversal.keys.copy()
            keys[0] = next(z for z in itertools.product(range(3), repeat=2)
                           if z not in census.counts)
            object.__setattr__(census.transversal, "keys", keys)
        return census

    monkeypatch.setattr(census_mod, "enumerate_census", off_image)
    details = {r.name: r.detail for r in run_all(quick=True) if not r.ok}
    for name in ("pipeline-equivalence-vand-q3-d1-k1", "success-probability-vand-q3-d1-k1"):
        assert details[name] == "ContractError: transversal support is not the image"
