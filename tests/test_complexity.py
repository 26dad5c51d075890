"""Query-count planning: exact integer answers, float logs only where provably decisive.

The closed-form expectations below were recomputed by hand with exact
power comparisons before being frozen here.
"""

import dataclasses
import itertools
import time

import pytest

from qvint import complexity
from qvint.complexity import (InstanceClassification, QueryPlan,
                              ReductionPlan, classify_instance,
                              multivariate_query_bounds, plan_bounded_error,
                              plan_high_probability, univariate_reduction)
from qvint.domain import build_monomial_domain, build_vandermonde_domain
from qvint.errors import ContractError, ParameterError
from qvint.field import FieldParams

from oracles import monomial_image


def stats_for(q, d):
    params = FieldParams(q) if q in (2, 3, 5, 7, 11, 13) else FieldParams(2, 2)
    return build_vandermonde_domain(params, d).stats()


class TestBoundedErrorPlan:
    def test_spec_instances(self):
        assert plan_bounded_error(4, 5, 5).k == 2
        assert plan_bounded_error(6, 5, 5).k == 3
        assert plan_bounded_error(2, 3, 3).k == 1
        assert plan_bounded_error(10, 3, 3).k == 5

    def test_minimality(self):
        for n, q, size in ((4, 5, 5), (6, 5, 5), (10, 3, 3), (3, 7, 4)):
            plan = plan_bounded_error(n, q, size)
            k = plan.k
            assert (size * q) ** k >= q ** n
            assert k == 1 or (size * q) ** (k - 1) < q ** n

    def test_rule_and_note(self):
        plan = plan_bounded_error(4, 5, 5)
        assert plan.rule == "low-regime"
        assert "1/k!" in plan.note

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            plan_bounded_error(0, 5, 5)
        # A bool is an int to isinstance, but not a dimension.
        with pytest.raises(ParameterError, match="dimension must be an integer >= 1, got True"):
            plan_bounded_error(True, 5, 5)
        with pytest.raises(ParameterError):
            plan_bounded_error(4, 5, 0)

    def test_ratio_past_the_float_range(self):
        # |V|*q = 2 * 10^400 overflows a float; one query already covers q^n.
        assert plan_bounded_error(1, 2, 10 ** 400).k == 1


class TestHighProbabilityPlan:
    def test_q_larger_than_domain(self):
        plan = plan_high_probability(4, 5, 4, 1)
        assert plan.k == 3
        assert plan.rule == "high-regime-q-large"

    def test_tie_rule_agrees_on_both_formulas(self):
        plan = plan_high_probability(4, 7, 7, 1)
        assert plan.k == 3
        assert plan.rule == "high-regime-tie"

    def test_domain_larger_than_q(self):
        dom = build_monomial_domain(FieldParams(3), 2, 2)
        stats = dom.stats()
        plan = plan_high_probability(
            stats.length, stats.field_order, stats.size, stats.zero_touching)
        assert plan.k == 7
        assert plan.rule == "high-regime-V-large"

    def test_degenerate_no_zero_touching(self):
        plan = plan_high_probability(4, 5, 5, 0)
        assert plan.k == 1
        assert plan.rule == "high-regime-degenerate"

    def test_minimality_q_large(self):
        for n, q, size, v0 in ((4, 5, 4, 1), (6, 7, 4, 1), (8, 11, 6, 2)):
            k = plan_high_probability(n, q, size, v0).k
            assert size ** (2 * k) >= v0 ** (2 * k) * size * q ** n
            assert k == 1 or \
                size ** (2 * (k - 1)) < v0 ** (2 * (k - 1)) * size * q ** n

    def test_all_vectors_zero_touching_is_an_error(self):
        with pytest.raises(ParameterError):
            plan_high_probability(4, 5, 5, 5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            plan_high_probability(4, 5, 5, -1)
        with pytest.raises(ParameterError):
            plan_high_probability(4, 5, 5, 6)

    def test_plan_validation(self):
        with pytest.raises(ContractError):
            QueryPlan(0, "low-regime", "")

    def test_ratio_past_the_float_range(self):
        # (|V|/|V_0|)^2 = 10^800 overflows a float; one query reaches q^(n+1).
        assert plan_high_probability(1, 2, 10 ** 400, 1).k == 1


class TestPlanSweep:
    @pytest.mark.parametrize("q", (5, 7, 11, 13))
    def test_low_at_most_high_when_both_defined(self, q):
        params = FieldParams(q)
        for d in range(1, q - 1):
            stats = build_vandermonde_domain(params, d).stats()
            low = plan_bounded_error(stats.length, q, stats.size)
            high = plan_high_probability(
                stats.length, q, stats.size, stats.zero_touching)
            assert 1 <= low.k <= high.k

    def test_vandermonde_zero_touching_is_one(self):
        for q, d in ((5, 2), (7, 4), (13, 6)):
            stats = build_vandermonde_domain(FieldParams(q), d).stats()
            assert stats.zero_touching == 1


def linear_least_k(ratio_num, ratio_den, target_num, target_den):
    """Reference: step k up one at a time until the exact power comparison holds."""
    k, lhs_num, lhs_den = 1, ratio_num, ratio_den
    while lhs_num * target_den < target_num * lhs_den:
        k, lhs_num, lhs_den = k + 1, lhs_num * ratio_num, lhs_den * ratio_den
    return k


class TestPowerSearch:
    def test_matches_linear_search(self):
        for ratio_num, ratio_den in itertools.product(range(1, 12), repeat=2):
            if ratio_num <= ratio_den:
                continue
            for target_num, target_den in itertools.product(
                    list(range(1, 30)) + [10 ** 6, 3 ** 40], range(1, 9)):
                args = (ratio_num, ratio_den, target_num, target_den)
                assert complexity._least_k(*args) == linear_least_k(*args)

    def test_cap_is_the_largest_plan(self, monkeypatch):
        monkeypatch.setattr(complexity, "_MAX_PLANNED_K", 50)
        assert complexity._least_k(2, 1, 2 ** 50, 1) == 50
        for target in (2 ** 50 + 1, 2 ** 70):
            with pytest.raises(ContractError, match="exceeded 50"):
                complexity._least_k(2, 1, target, 1)

    @pytest.mark.parametrize("ratio", ((1024 ** 2, 1023 ** 2), (1025, 1024), (101, 100)))
    def test_ratios_just_above_one(self, ratio):
        # Hundreds to thousands of steps: the float estimate starts k within
        # a step or two of the exact answer, which the comparisons settle.
        targets = [1, 2, 3, 10 ** 3, 10 ** 3 + 1, 999_999, 10 ** 6]
        for target_num, target_den in itertools.product(targets, (1, 7)):
            args = ratio + (target_num, target_den)
            assert complexity._least_k(*args) == linear_least_k(*args)
        # Exactly at a power: k, and one more just past it.
        for k in (1, 2, 50, 700):
            assert complexity._least_k(*ratio, ratio[0] ** k, ratio[1] ** k) == k
            assert complexity._least_k(*ratio, ratio[0] ** k + 1, ratio[1] ** k) == k + 1

    def test_ratio_too_close_to_one_for_a_float(self):
        # (ratio - 1) rounds to 0.0 as a float: the estimate stays finite, and
        # the plan is refused at once, or found when the target is reached.
        ratio = (10 ** 400 + 1, 10 ** 400)
        started = time.perf_counter()
        with pytest.raises(ContractError, match=f"exceeded {complexity._MAX_PLANNED_K}"):
            complexity._least_k(*ratio, 2, 1)
        assert time.perf_counter() - started < 1.0
        assert complexity._least_k(*ratio, 1, 1) == complexity._least_k(*ratio, *ratio) == 1

    def test_hopeless_plan_is_refused_at_once(self):
        # Needs k near 2.3e8; the exact search would raise the ratio to
        # powers near 2^20 before giving up.
        started = time.perf_counter()
        with pytest.raises(ContractError, match=f"exceeded {complexity._MAX_PLANNED_K}"):
            complexity._least_k(1000001, 1000000, 10 ** 100, 1)
        assert time.perf_counter() - started < 1.0


    @pytest.mark.parametrize("m,d,want", ((12, 3, 647243), (14, 2, 687049)))
    def test_large_monomial_plan_forms_no_huge_powers(self, m, d, want):
        # The float logs clear their error bound at every step, so no power
        # of millions of digits is formed; want is the exact comparisons'
        # answer, which takes seconds per power.
        stats = build_monomial_domain(FieldParams(2), m, d).stats()
        started = time.perf_counter()
        high = complexity.query_plans(stats)[1]
        assert time.perf_counter() - started < 1.0
        assert (high.k, high.rule) == (want, "high-regime-V-large")


class TestMultivariateBounds:
    def test_reference_values(self):
        assert multivariate_query_bounds(6, 3, 2) == (1, 32)
        assert multivariate_query_bounds(10, 3, 2) == (2, 50)
        assert multivariate_query_bounds(10, 2, 3) == (1, 44)

    def test_lower_at_most_upper_across_grid(self):
        for n in range(1, 40):
            for q in (2, 3, 5):
                for m in (1, 2, 3):
                    lo, hi = multivariate_query_bounds(n, q, m)
                    assert 1 <= lo <= hi

    def test_ceiling_arithmetic(self):
        # (n+1)/(2 m^m) with n=15, m=2 is exactly 2, no rounding slack
        assert multivariate_query_bounds(15, 3, 2)[0] == 2
        assert multivariate_query_bounds(16, 3, 2)[0] == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            multivariate_query_bounds(0, 3, 2)
        with pytest.raises(ParameterError):
            multivariate_query_bounds(6, 3, 0)


class TestUnivariateReduction:
    def test_reference_plan(self):
        plan = univariate_reduction(3, 2)
        assert plan.exponents == (1, 3, 7)
        assert plan.reduced_degree == 14
        image = sorted(monomial_image(plan).values())
        assert image == [0, 1, 2, 3, 4, 6, 7, 8, 10, 14]
        assert plan.suggested_k == 8
        assert "even" in plan.note

    def test_single_variable_is_identity(self):
        plan = univariate_reduction(1, 4)
        assert plan.exponents == (1,)
        assert plan.reduced_degree == 4
        assert monomial_image(plan) == {(0,): 0, (1,): 1, (2,): 2,
                                        (3,): 3, (4,): 4}
        assert plan.suggested_k == 3

    def test_odd_reduced_degree(self):
        plan = univariate_reduction(3, 3)
        assert plan.exponents == (1, 4, 13)
        assert plan.reduced_degree == 39
        assert plan.suggested_k == 20

    def test_top_degree_comes_from_last_exponent(self):
        for m in (1, 2, 3, 4):
            for d in (1, 2, 3):
                plan = univariate_reduction(m, d)
                assert plan.reduced_degree == d * plan.exponents[-1]

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 7))
    def test_substitution_is_injective(self, m, d):
        plan = univariate_reduction(m, d)
        image = list(monomial_image(plan).values())
        assert len(set(image)) == len(image)
        assert max(image) == plan.reduced_degree

    def test_exponent_recurrence(self):
        plan = univariate_reduction(4, 3)
        e = plan.exponents
        assert e[0] == 1
        for i in range(1, len(e)):
            assert e[i] == 3 * e[i - 1] + 1

    def test_suggested_k_parity(self):
        for m in (1, 2, 3):
            for d in (1, 2, 3):
                plan = univariate_reduction(m, d)
                D = plan.reduced_degree
                if D % 2 == 1:
                    assert plan.suggested_k == (D + 1) // 2
                else:
                    assert plan.suggested_k == D // 2 + 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            univariate_reduction(0, 2)
        with pytest.raises(ParameterError):
            univariate_reduction(2, 0)

    def test_equal_plans_hash_equal(self):
        a, b = univariate_reduction(2, 2), univariate_reduction(2, 2)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, univariate_reduction(2, 3)}) == 2

    def test_stores_no_monomial_image(self):
        # The image is fixed by the exponents; no command reads it.
        assert not hasattr(univariate_reduction(2, 2), "monomial_image")


class TestClassification:
    def test_high_match_takes_precedence(self):
        stats = stats_for(7, 3)
        got = classify_instance(stats, 3)
        assert isinstance(got, InstanceClassification)
        assert got.summary == "high-regime exact match"

    def test_low_match(self):
        stats = stats_for(5, 3)
        assert classify_instance(stats, 2).summary == "low-regime exact match"

    def test_below_low(self):
        stats = stats_for(5, 3)
        summary = classify_instance(stats, 1).summary
        assert summary == "below the bounded-error query count"

    def test_between(self):
        dom = build_monomial_domain(FieldParams(3), 2, 2)
        got = classify_instance(dom.stats(), 5)
        assert got.summary == \
            "between the bounded-error and high-probability query counts"

    def test_above_high(self):
        stats = stats_for(5, 3)
        summary = classify_instance(stats, 9).summary
        assert summary == "exceeds the high-probability query count"

    def test_holds_only_its_verdicts(self):
        # The plans it compares against are query_plans(stats), which
        # analyze reports on their own.
        assert [f.name for f in dataclasses.fields(InstanceClassification)] == [
            "k", "meets_bounded_error", "meets_high_probability", "summary"]

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            classify_instance(stats_for(5, 3), 0)
