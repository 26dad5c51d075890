"""Self-check suite: green on its grid, red under fault injection."""

import itertools

import numpy as np
import pytest

from oracles import counts_of
from qvint import census as census_mod, simulator, verify as verify_mod
from qvint.domain import rows_to_flat
from qvint.errors import ContractError
from qvint.field import FieldElement, FieldParams
from qvint.verify import run_all


def test_corrupt_modulus_fails_only_the_irreducibility_check(monkeypatch):
    # The check is handed the reducible x^r in place of each extension
    # field's modulus; the fields themselves stay intact.
    irreducible = verify_mod._is_irreducible
    monkeypatch.setattr(verify_mod, "_is_irreducible",
                        lambda modulus, p: irreducible((0,) * (len(modulus) - 1) + (1,), p))
    results = run_all()
    failed = {r.name for r in results if not r.ok}
    assert failed == {"modulus-irreducible-q4", "modulus-irreducible-q8",
                      "modulus-irreducible-q9"}


def test_a_raising_check_fails_alone(monkeypatch):
    def broken(census):
        raise ContractError("bound withheld")

    monkeypatch.setattr(census_mod.PreimageCensus, "chebyshev_zero_bound", broken)
    results = run_all()
    assert len(results) == 109
    failed = [r for r in results if not r.ok]
    assert failed == [r for r in results if r.name.startswith("chebyshev-")]
    assert failed
    assert all(r.detail == "ContractError: bound withheld" for r in failed)


def test_corrupt_hit_counts_fail_the_second_moment_checks(monkeypatch):
    real = census_mod.PreimageCensus._hits.func

    def corrupt(census):
        hits = real(census).copy()
        hits[1] = (hits[1] + 1) % (census.domain.size + 1)
        return hits

    # Recounted on every read, the same corruption each time.
    monkeypatch.setattr(census_mod.PreimageCensus, "_hits", property(corrupt))
    results = run_all()
    second_moment = [r for r in results if r.name.startswith("second-moment-")]
    assert len(second_moment) == 12
    assert all(not r.ok and r.detail.endswith(", N(t) tally differs from the direct count")
               for r in second_moment)
    # The transform census and the picker read the same N(t), so the walk
    # comparison and each k >= 2 sweep's two verdicts catch it too; nothing
    # else does.
    assert len(results) == 109
    failed = {r.name for r in results if not r.ok}
    swept = [r.name.removeprefix("second-moment-") for r in second_moment
             if not r.name.endswith("-k1")]
    assert len(swept) == 6
    assert failed == ({r.name for r in second_moment}
                      | {r.name.replace("second-moment-", "census-totals-") for r in second_moment}
                      | {f"{verdict}-{instance}" for instance in swept
                         for verdict in ("pipeline-equivalence", "success-probability")})


def test_one_direct_tally_per_instance(monkeypatch):
    real = census_mod._direct_hit_tally
    calls = []

    def counted(domain):
        calls.append((domain.params.q, domain.n))
        return real(domain)

    monkeypatch.setattr(census_mod, "_direct_hit_tally", counted)
    assert all(r.ok for r in run_all())
    assert calls == [(3, 2), (4, 2), (5, 2), (5, 4), (7, 4), (3, 6)]


def test_a_raising_direct_tally_fails_each_second_moment_name_of_its_instance(monkeypatch):
    passing = [r.name for r in run_all()]
    real = census_mod._direct_hit_tally

    def withheld(domain):
        if (domain.params.q, domain.n) == (5, 4):
            raise ContractError("tally withheld")
        return real(domain)

    monkeypatch.setattr(census_mod, "_direct_hit_tally", withheld)
    results = run_all()
    assert [r.name for r in results] == passing
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == [f"second-moment-vand-q5-d3-k{k}" for k in (1, 2, 3)]
    assert all(r.detail == "ContractError: tally withheld" for r in failed)


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
    passing = [r.name for r in run_all()]

    def broken(transversal, flats):
        raise ContractError("probability withheld")

    monkeypatch.setattr(simulator, "_sweep", broken)
    results = run_all()
    assert len(results) == 109
    assert [r.name for r in results] == passing
    failed = [r for r in results if not r.ok]
    assert failed == [r for r in results
                      if r.name.startswith(("pipeline-equivalence-", "success-probability-"))]
    assert len(failed) == 24
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
    pipeline = [r for r in run_all() if r.name.startswith("pipeline-equivalence-")]
    assert len(pipeline) == 12
    assert not any(r.ok for r in pipeline)


def test_a_transversal_off_the_image_fails_its_sweep(monkeypatch):
    real = census_mod.enumerate_census

    def off_image(domain, k):
        census = real(domain, k)
        if (domain.params.q, domain.n, k) == (3, 2, 1):
            keys = census.transversal.keys.copy()
            keys[0] = next(z for z in itertools.product(range(3), repeat=2)
                           if z not in counts_of(census))
            object.__setattr__(census.transversal, "keys", keys)
        return census

    monkeypatch.setattr(census_mod, "enumerate_census", off_image)
    details = {r.name: r.detail for r in run_all() if not r.ok}
    for name in ("pipeline-equivalence-vand-q3-d1-k1", "success-probability-vand-q3-d1-k1"):
        assert details[name] == "ContractError: transversal support is not the image"



@pytest.fixture(scope="module")
def clean_names():
    """The 109 names of a full run before any fault is planted, in order."""
    return [r.name for r in run_all()]


def failures_in_full_run(clean_names):
    """The failing names and details of a full run, which must keep every name."""
    results = run_all()
    assert [r.name for r in results] == clean_names
    assert len(results) == 109
    return {r.name: r.detail for r in results if not r.ok}


# GF(9) is checked but backs no instance, so a fault planted in it reaches
# only its own field checks.
def test_a_wrong_element_product_fails_field_axioms(monkeypatch, clean_names):
    real = FieldElement.__mul__

    def wrong(self, other):
        # (1+w)(1+2w) is in no unit, inverse or power law of the check.
        product = real(self, other)
        if self.params.q == 9 and (self.index(), other.index()) == (4, 7):
            return product + 1
        return product

    monkeypatch.setattr(FieldElement, "__mul__", wrong)
    assert failures_in_full_run(clean_names) == {
        "field-axioms-q9":
            "element arithmetic differs from the tables at GF(9):(1, 1), GF(9):(1, 2)"}


def swap_in_gf9_add_table(monkeypatch):
    """Swap w + (1+w) and w + (2+w) in GF(9)'s add table; the row stays a
    permutation and the unit and negation entries are untouched."""
    real = FieldParams.add_rows

    def swapped(self):
        table = real(self)
        if self.q != 9:
            return table
        table = table.copy()
        table[3, [4, 5]] = table[3, [5, 4]]
        return table

    monkeypatch.setattr(FieldParams, "add_rows", swapped)


def test_a_swapped_add_table_entry_fails_field_axioms(monkeypatch, clean_names):
    swap_in_gf9_add_table(monkeypatch)
    # The trace check reads the same table, so it fails too.
    assert failures_in_full_run(clean_names) == {
        "field-axioms-q9":
            "element arithmetic differs from the tables at GF(9):(0, 1), GF(9):(1, 1)",
        "trace-character-q9": "trace additivity broke at GF(9):(0, 1), GF(9):(1, 1)"}


def test_a_lawless_table_that_element_sums_follow_fails_field_axioms(monkeypatch, clean_names):
    swap_in_gf9_add_table(monkeypatch)

    def table_sum(self, other):
        return self.params.from_index(int(self.params.add_rows()[self.index(), other.index()]))

    # Element sums now equal the table, so only the table laws can catch it.
    monkeypatch.setattr(FieldElement, "__add__", table_sum)
    failed = failures_in_full_run(clean_names)
    assert failed["field-axioms-q9"] == "commutativity broke at GF(9):(0, 1), GF(9):(1, 1)"
    assert set(failed) == {"field-axioms-q9", "trace-character-q9"}


def test_a_wrong_trace_value_fails_trace_character(monkeypatch, clean_names):
    real = FieldParams.trace_values

    def wrong(self):
        traces = real(self)
        if self.q != 9:
            return traces
        return [(t + 1) % 3 if i == 4 else t for i, t in enumerate(traces)]

    monkeypatch.setattr(FieldParams, "trace_values", wrong)
    assert failures_in_full_run(clean_names) == {
        "trace-character-q9": "trace or character of GF(9):(1, 1) differs from the tables"}


def test_a_swapped_mul_table_entry_fails_field_axioms(monkeypatch, clean_names):
    # Swap (1+w) * (2+w) and (1+w) * (1+2w) in GF(9)'s mul table; the row
    # stays a permutation, so the trace and character checks, which read
    # products only through the orthogonality row sums, still pass.
    real = FieldParams.mul_rows

    def swapped(self):
        table = real(self)
        if self.q != 9:
            return table
        table = table.copy()
        table[4, [5, 7]] = table[4, [7, 5]]
        return table

    monkeypatch.setattr(FieldParams, "mul_rows", swapped)
    assert failures_in_full_run(clean_names) == {
        "field-axioms-q9":
            "element arithmetic differs from the tables at GF(9):(1, 1), GF(9):(2, 1)"}


def plant_in_walk(monkeypatch, instance, name, change):
    """Replace the walk census's array name for (q, n, k) = instance by a
    copy that change(array) edits in place."""
    real = census_mod.enumerate_census

    def planted(domain, k):
        census = real(domain, k)
        if (domain.params.q, domain.n, k) == instance:
            array = getattr(census, name).copy()
            change(array)
            vars(census)[name] = array
        return census

    monkeypatch.setattr(census_mod, "enumerate_census", planted)


def test_a_wrong_good_count_fails_the_dichotomy(monkeypatch, clean_names):
    def swap(good):
        # One good pre-image moves from (0, 1, 0, 4) to (0, 1, 0, 1): the
        # total stays, and both counts leave {0, 2}.
        assert good[rows_to_flat((0, 1, 0, 1), 5)] == good[rows_to_flat((0, 1, 0, 4), 5)] == 2
        good[rows_to_flat((0, 1, 0, 1), 5)] += 1
        good[rows_to_flat((0, 1, 0, 4), 5)] -= 1

    plant_in_walk(monkeypatch, (5, 4, 2), "dense_good", swap)
    assert failures_in_full_run(clean_names) == {
        "census-totals-vand-q5-d3-k2": "transform census differs from the walk",
        "good-dichotomy-vand-q5-d3-k2": "good count outside {0, 2} at (0, 1, 0, 1)"}


def test_a_target_leaving_the_image_fails_monotonicity(monkeypatch, clean_names):
    def drop(counts):
        # (1, 0) is in the k = 1 image of Vandermonde GF(3) d = 1.
        counts[rows_to_flat((1, 0), 3)] = 0

    plant_in_walk(monkeypatch, (3, 2, 2), "dense", drop)
    failed = failures_in_full_run(clean_names)
    assert failed["image-monotonicity-vand-q3-d1"] == "target (1, 0) fell out at k=2"
    # The totals, the second moment and the zero fraction miss the counts too.
    assert set(failed) == {"image-monotonicity-vand-q3-d1", "census-totals-vand-q3-d1-k2",
                           "second-moment-vand-q3-d1-k2", "chebyshev-vand-q3-d1-k2"}


def test_outcomes_rolled_by_one_fail_the_argmax_sweeps(monkeypatch, clean_names):
    # Every distribution is shifted one outcome along canonical order, so
    # the heaviest outcome is never the secret.
    real = simulator._outcome_probs
    monkeypatch.setattr(simulator, "_outcome_probs",
                        lambda params, n, amplitudes: np.roll(real(params, n, amplitudes), 1,
                                                              axis=-1))
    failed = failures_in_full_run(clean_names)
    swept = {f"success-probability-vand-q{q}-d1-k{k}" for q in (3, 4, 5) for k in (1, 2)}
    assert set(failed) == swept | {"success-probability-vand-q5-d3-k3",
                                   "sampling-reproducibility"}
    assert all(failed[name].endswith("argmax missed the secret")
               for name in failed if name != "sampling-reproducibility")
