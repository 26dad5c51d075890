"""Acceptance gate: ten end-to-end criteria, each with the tolerance it is
specified at and a wall-clock budget it must fit inside.

The criteria pin the package's headline behaviors: closed-form query counts,
the exact success-probability identity, the good-pre-image dichotomy, two
exact counting identities, the phase-query identity, the optimality rank
ceiling, multivariate cross-checks, seeded sampling, and the character
layer.  Numeric expectations are either closed forms evaluated inline or
values frozen from an independent enumeration.
"""

import itertools
import math
import time
from fractions import Fraction

from qvint.census import PreimageCensus, enumerate_census
from qvint.complexity import (multivariate_query_bounds, plan_bounded_error,
                              plan_high_probability, univariate_reduction)
from qvint.domain import (Domain, VectorFq, build_monomial_domain,
                          build_vandermonde_domain)
from qvint.field import FieldParams, character_orthogonality_check, \
    parse_field_spec
from qvint.simulator import (outcome_distribution, phase_query_check,
                             run_algorithm, sample_outcomes,
                             state_family_rank, success_probability)
from qvint.verify import MONOMIAL_GRID, SAMPLING_SEED, VANDERMONDE_GRID

from oracles import monomial_image

_params_cache = {}
_census_cache = {}
_grid_cache = []


def field(q):
    if q not in _params_cache:
        _params_cache[q] = parse_field_spec(str(q))
    return _params_cache[q]


def grid_instances():
    """Every (domain, k) pair in the built-in verification grid."""
    if not _grid_cache:
        for q, d, ks in VANDERMONDE_GRID:
            dom = build_vandermonde_domain(field(q), d)
            _grid_cache.extend((dom, k) for k in ks)
        for q, m, d, ks in MONOMIAL_GRID:
            dom = build_monomial_domain(field(q), m, d)
            _grid_cache.extend((dom, k) for k in ks)
    return _grid_cache


def census_of(domain, k):
    key = (domain.label, k)
    if key not in _census_cache:
        _census_cache[key] = enumerate_census(domain, k)
    return _census_cache[key]


def all_secrets(params, n):
    for key in itertools.product(range(params.q), repeat=n):
        yield VectorFq.from_index_tuple(params, key)


class Budget:
    """Context manager asserting the body fits its wall-clock budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.started
            assert elapsed < self.seconds, (
                f"ran {elapsed:.2f}s, budget {self.seconds}s"
            )
        return False


def test_criterion_01_univariate_query_formulas():
    """k_low = (d+1)/2 for odd d, k_high = d/2 + 1 for even d, exactly."""
    with Budget(1):
        for q in (5, 7, 11, 13):
            params = field(q)
            for d in range(1, q):
                stats = build_vandermonde_domain(params, d).stats()
                assert stats.size == q and stats.zero_touching == 1
                low = plan_bounded_error(stats.length, q, stats.size)
                high = plan_high_probability(
                    stats.length, q, stats.size, stats.zero_touching)
                if d % 2 == 1:
                    assert low.k == (d + 1) // 2
                else:
                    assert high.k == d // 2 + 1


def test_criterion_02_success_probability_identity():
    """Analytic overlap equals image fraction, for every secret."""
    with Budget(10):
        pinned = {(3, 1, 1): Fraction(7, 9), (5, 1, 2): Fraction(1)}
        for q, d, k in ((3, 1, 1), (5, 1, 1), (5, 1, 2), (5, 3, 2)):
            dom = build_vandermonde_domain(field(q), d)
            census = census_of(dom, k)
            trans = enumerate_census(dom, k).transversal
            expected = census.success_probability()
            if (q, d, k) in pinned:
                assert expected == pinned[(q, d, k)]
            values = []
            for secret in all_secrets(dom.params, dom.n):
                state = run_algorithm(trans, secret)
                values.append(success_probability(state, secret))
            assert all(abs(v - float(expected)) < 1e-9 for v in values)
            assert max(values) - min(values) < 1e-9


def test_criterion_03_good_preimage_dichotomy():
    """Good counts are 0 or k!, and the image meets its lower bound."""
    with Budget(30):
        applicable = 0
        for dom, k in grid_instances():
            if dom.independence().status != "verified" or 2 * k > dom.n:
                continue
            applicable += 1
            census = census_of(dom, k)
            good = census.dense_good
            assert set(good[good != 0].tolist()) <= {math.factorial(k)}
            assert (good >= 0).all()
            bound = census.image_size_lower_bound()
            assert bound == math.comb(dom.size, k) * (dom.params.q - 1) ** k
            assert census.image_size >= bound
        assert applicable >= 5


def test_criterion_04_second_moment_identity():
    """Sum of squared counts equals the closed form, exactly rational."""
    with Budget(60):
        labels = set()
        for dom, k in grid_instances():
            check = census_of(dom, k).second_moment_identity()
            assert check.equal
            assert Fraction(check.lhs) == check.rhs
            labels.add(dom.label)
        assert len({(dom.label, k) for dom, k in grid_instances()}) >= 5
        assert any("q=4" in label for label in labels)
        assert any(label.startswith("monomial") for label in labels)


def test_criterion_05_chebyshev_consistency():
    """Observed empty-pre-image fraction never exceeds the tail bound."""
    with Budget(60):
        for dom, k in grid_instances():
            census = census_of(dom, k)
            assert census.zero_count_fraction() <= PreimageCensus(dom, k).chebyshev_zero_bound()
        dom = build_vandermonde_domain(field(5), 3)
        bound = PreimageCensus(dom, 3).chebyshev_zero_bound()
        assert bound == Fraction(1484, 625)
        assert float(bound) == 2.3744
        assert census_of(dom, 3).zero_count_fraction() <= bound


def test_criterion_06_phase_query_identity():
    """Fourier-conjugated shift equals the diagonal phase, per entry."""
    with Budget(5):
        for q in (3, 4, 5):
            dom = build_vandermonde_domain(field(q), 1)
            for secret in all_secrets(dom.params, dom.n):
                assert phase_query_check(dom, secret)


def test_criterion_07_optimality_rank():
    """State-family rank equals |image|, and the run meets that ceiling."""
    with Budget(10):
        for (q, d, k), expected_rank in (((3, 1, 1), 7), ((5, 3, 2), 181)):
            dom = build_vandermonde_domain(field(q), d)
            census = census_of(dom, k)
            rank = state_family_rank(Domain(dom.params, census.image_keys))
            assert rank == expected_rank == census.image_size
            ceiling = Fraction(rank, dom.params.q ** dom.n)
            assert census.success_probability() == ceiling
            trans = enumerate_census(dom, k).transversal
            secret = next(all_secrets(dom.params, dom.n))
            state = run_algorithm(trans, secret)
            assert abs(success_probability(state, secret) - float(ceiling)) < 1e-9


def test_criterion_08_multivariate_cross_checks():
    """Monomial domain shapes, query bounds, and reduction arithmetic."""
    with Budget(10):
        for m, d, q in ((2, 2, 3), (2, 3, 3), (3, 2, 2)):
            dom = build_monomial_domain(field(q), m, d)
            assert dom.n == math.comb(m + d, d)
            assert dom.size == q ** m
            assert dom.zero_touching_count() == q ** m - (q - 1) ** m
            lower, upper = multivariate_query_bounds(dom.n, q, m)
            anchor = Fraction(d * dom.n, m + d)
            assert lower <= anchor <= upper
            plan = univariate_reduction(m, d)
            image = list(monomial_image(plan).values())
            assert len(set(image)) == len(image)
            assert plan.reduced_degree == sum(d ** i for i in range(1, m + 1))
        assert univariate_reduction(3, 2).reduced_degree == 14


def test_criterion_09_empirical_sampling():
    """Seeded sampling lands within 3 sigma and reproduces exactly."""
    with Budget(10):
        dom = build_vandermonde_domain(field(3), 1)
        trans = enumerate_census(dom, 1).transversal
        secret = VectorFq.from_index_tuple(dom.params, (1, 2))
        state = run_algorithm(trans, secret)
        dist = outcome_distribution(state)
        trials = 100_000
        report = sample_outcomes(dist, trials, seed=SAMPLING_SEED)
        again = sample_outcomes(dist, trials, seed=SAMPLING_SEED)
        assert report.tallies.tolist() == again.tallies.tolist()
        p = 7 / 9
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(report.frequency_of(secret) - p) <= 3 * sigma


def test_criterion_10_character_layer():
    """Field axioms, trace linearity, character structure, orthogonality."""
    with Budget(5):
        for q in (2, 3, 4, 5, 7, 8, 9):
            params = field(q)
            elems = params.elements()
            p = params.p
            for a in elems:
                for b in elems:
                    assert (a + b).index() == (b + a).index()
                    assert (a * b).index() == (b * a).index()
                    assert (a.trace() + b.trace()) % p == (a + b).trace()
                    assert abs((a + b).character()
                               - a.character() * b.character()) < 1e-12
            for a in elems:
                assert (a + params.zero()).index() == a.index()
                assert (a * params.one()).index() == a.index()
                assert (a - a).is_zero()
                if not a.is_zero():
                    assert (a * a.inverse()).index() == params.one().index()
            sample = elems if q <= 5 else elems[:5]
            for a in sample:
                for b in sample:
                    for c in sample:
                        assert ((a + b) + c).index() == (a + (b + c)).index()
                        assert ((a * b) * c).index() == (a * (b * c)).index()
                        assert (a * (b + c)).index() == (a * b + a * c).index()
            assert character_orthogonality_check(params)
