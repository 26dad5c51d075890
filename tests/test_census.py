"""Census layer: exact pre-image counts and the identities hanging off them.

Expected numbers in this file were frozen from an independent brute-force
enumeration (plain integer arithmetic modulo p and hand-built GF(4)
tables), not from the package under test.
"""

import copy
import dataclasses
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from oracles import (counts_of, good_counts_of, linear_combination, transversal_pairs,
                     vectors_of)
from qvint import census as census_mod
from qvint import errors
from qvint.census import PreimageCensus, Transversal, enumerate_census, transform_census
from qvint.domain import (Domain, VectorFq, build_explicit_domain,
                          build_monomial_domain, build_vandermonde_domain,
                          flat_to_rows, rows_to_flat)
from qvint.errors import ContractError, ParameterError, ResourceCapError
from qvint.field import FieldParams, parse_field_spec
from qvint.verify import MONOMIAL_GRID, VANDERMONDE_GRID

F3 = FieldParams(3)
F4 = FieldParams(2, 2)
F5 = FieldParams(5)
F7 = FieldParams(7)

# (field, degree, k) -> independently enumerated image size
FROZEN_IMAGE_SIZES = {
    (3, 1, 1): 7,
    (3, 1, 2): 9,
    (4, 1, 1): 13,
    (4, 1, 2): 16,
    (5, 1, 1): 21,
    (5, 1, 2): 25,
    (5, 3, 1): 21,
    (5, 3, 2): 181,
    (5, 3, 3): 601,
    (7, 3, 1): 43,
    (7, 3, 2): 799,
}

# (field, degree, k) -> independently computed sum of squared counts
FROZEN_SECOND_MOMENTS = {
    (3, 1, 1): 15,
    (3, 1, 2): 783,
    (4, 1, 1): 28,
    (4, 1, 2): 4288,
    (5, 1, 1): 45,
    (5, 1, 2): 16125,
    (5, 3, 1): 45,
    (5, 3, 2): 6045,
    (5, 3, 3): 1318125,
    (7, 3, 1): 91,
    (7, 3, 2): 26467,
}


def vandermonde(q, d):
    return build_vandermonde_domain(parse_field_spec(str(q)), d)


class TestLinearCombination:
    def test_scalar_multiple(self):
        v = VectorFq.from_index_tuple(F5, (1, 3))
        out = linear_combination([v], [F5.element(2)])
        assert out.index_tuple() == (2, 1)

    def test_coordinate_sums(self):
        vs = [VectorFq.from_index_tuple(F3, (1, 0)),
              VectorFq.from_index_tuple(F3, (1, 2))]
        out = linear_combination(vs, [F3.one(), F3.one()])
        assert out.index_tuple() == (2, 2)

    def test_zero_weights_give_zero_vector(self):
        vs = [VectorFq.from_index_tuple(F3, (1, 2))]
        assert linear_combination(vs, [F3.zero()]).index_tuple() == (0, 0)

    def test_empty_combination(self):
        out = linear_combination([], [], params=F3, n=2)
        assert out.index_tuple() == (0, 0)


class TestSmallCensus:
    def test_q3_full_census(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        assert counts_of(census) == {
            (0, 0): 3, (1, 0): 1, (1, 1): 1, (1, 2): 1,
            (2, 0): 1, (2, 1): 1, (2, 2): 1,
        }
        assert census.image_size == 7
        assert census.dense.sum() == 9

    def test_q3_good_counts(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        good = good_counts_of(census)
        assert good.get((1, 2), 0) == 1
        assert good.get((0, 0), 0) == 0
        assert good.get((2, 1), 0) == 1
        assert sum(good.values()) == 6

    def test_k0_census(self):
        census = enumerate_census(vandermonde(3, 1), 0)
        assert counts_of(census) == {(0, 0): 1}
        assert good_counts_of(census) == {(0, 0): 1}
        assert census.image_size == 1

    @pytest.mark.parametrize("key", sorted(FROZEN_IMAGE_SIZES))
    def test_frozen_image_sizes(self, key):
        q, d, k = key
        census = enumerate_census(vandermonde(q, d), k)
        assert census.image_size == FROZEN_IMAGE_SIZES[key]

    def test_monomial_image_size(self):
        dom = build_monomial_domain(F3, 2, 2)
        census = enumerate_census(dom, 1)
        assert census.image_size == 19

    def test_saturation_at_full_rank(self):
        census = enumerate_census(vandermonde(5, 1), 2)
        assert census.image_size == 25 == census.codomain_size
        assert census.success_probability() == 1


class TestCensusInvariants:
    GRID = ((3, 1, 1), (3, 1, 2), (4, 1, 1), (4, 1, 2), (5, 3, 1), (5, 3, 2))

    @pytest.mark.parametrize("q,d,k", GRID)
    def test_totals(self, q, d, k):
        dom = vandermonde(q, d)
        census = enumerate_census(dom, k)
        v_good, y_good = census.good_set_sizes()
        assert census.dense.sum() == (dom.size * dom.params.q) ** k
        assert census.dense_good.sum() == v_good * y_good
        assert census.mean() * census.codomain_size == census.total

    @pytest.mark.parametrize("q,d,k", GRID)
    def test_zero_always_in_image(self, q, d, k):
        dom = vandermonde(q, d)
        census = enumerate_census(dom, k)
        assert census.dense[0] >= 1  # flat index 0 is the zero vector

    @pytest.mark.parametrize("q,d", ((3, 1), (5, 3), (4, 1)))
    def test_image_monotone_in_k(self, q, d):
        dom = vandermonde(q, d)
        previous = {(0,) * dom.n}
        for k in (0, 1, 2):
            current = set(counts_of(enumerate_census(dom, k)))
            assert previous <= current
            previous = current

    def test_variance_definition(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        mu = census.mean()
        assert census.variance() == Fraction(15, 9) - mu * mu

    def test_tuple_cap(self):
        with pytest.raises(ResourceCapError, match="3814697265625"):
            enumerate_census(vandermonde(5, 3), 9)

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            enumerate_census(vandermonde(3, 1), -1)

    @pytest.mark.parametrize("engine", (enumerate_census, transform_census))
    def test_k_must_be_a_plain_int(self, engine):
        # A bool is an int to isinstance, but not a query count.
        with pytest.raises(ParameterError, match="query count must be an integer >= 0, got True"):
            engine(vandermonde(3, 1), True)


def brute_force_census(dom, k):
    """(dense, dense_good) by itertools.product over (position, weight)
    pairs and Python-list field tables: shares nothing with the package's
    blocked walk but the domain's index rows."""
    params = dom.params
    q, n = params.q, dom.n
    add, mul = params.add_rows().tolist(), params.mul_rows().tolist()
    rows = dom.indices.tolist()
    pairs = [(j, y) for j in range(dom.size) for y in range(q)]
    dense = np.zeros(q ** n, dtype=np.int64)
    good = np.zeros(q ** n, dtype=np.int64)
    for chosen in itertools.product(pairs, repeat=k):
        acc = [0] * n
        for j, y in chosen:
            acc = [add[a][mul[y][b]] for a, b in zip(acc, rows[j])]
        flat = rows_to_flat(acc, q)
        dense[flat] += 1
        positions = [j for j, _ in chosen]
        if len(set(positions)) == k and all(y != 0 for _, y in chosen):
            good[flat] += 1
    return dense, good


def _two_rows(dom):
    return build_explicit_domain(vectors_of(dom)[:2])


class TestBlockedWalk:
    # (domain, ks): every (|V| q)^k stays at or below 81^2 * 16, so the
    # Python brute force stays quick; GF(9) past k = 2 runs on two rows of
    # its Vandermonde domain.
    CASES = {
        "gf2-d1": (lambda: vandermonde(2, 1), range(5)),
        "gf3-d1": (lambda: vandermonde(3, 1), range(5)),
        "gf4-d1": (lambda: vandermonde(4, 1), range(5)),
        "gf4-d2": (lambda: vandermonde(4, 2), range(4)),
        "gf9-d1": (lambda: vandermonde(9, 1), range(3)),
        "gf9-d1-two-rows": (lambda: _two_rows(vandermonde(9, 1)), range(3, 5)),
        "gf2-monomial-2-2": (lambda: build_monomial_domain(FieldParams(2), 2, 2), range(5)),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_equals_the_brute_force(self, name):
        build, ks = self.CASES[name]
        dom = build()
        for k in ks:
            dense, good = brute_force_census(dom, k)
            census = enumerate_census(dom, k)
            assert np.array_equal(census.dense, dense), k
            assert np.array_equal(census.dense_good, good), k

    @pytest.mark.parametrize("block", (1, 2 * 9 + 1, 5 * 9 + 4))
    def test_block_size_does_not_change_the_counts(self, monkeypatch, block):
        # GF(3) d=1 has 9 pairs, so these budgets expand 1, 2 and 5 sums at a
        # time; the 9 sums of level 1 then split mid-block.
        dom = vandermonde(3, 1)
        expected = [enumerate_census(dom, k) for k in range(5)]
        monkeypatch.setattr(errors, "BLOCK_ENTRIES", block)
        for k, want in enumerate(expected):
            got = enumerate_census(dom, k)
            assert np.array_equal(got.dense, want.dense)
            assert np.array_equal(got.dense_good, want.dense_good)

    @pytest.mark.parametrize("cap,value,match", (
        ("DEFAULT_MAX_TUPLES", 10, "census needs 81 tuples, cap is 10"),
        ("MAX_RESIDUES", 8, "census needs 9 points, cap is 8"),
    ))
    def test_caps_raise_before_any_allocation(self, monkeypatch, cap, value, match):
        dom = vandermonde(3, 1)
        dom.params.add_rows(), dom.params.mul_rows()  # built before the patch

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(census_mod, cap, value)
        monkeypatch.setattr(census_mod.np, "zeros", refuse)
        with pytest.raises(ResourceCapError, match=match):
            enumerate_census(dom, 2)


class TestSquareSum:
    @pytest.mark.parametrize("q,d,k", ((3, 1, 1), (4, 1, 2), (5, 3, 2), (5, 3, 3), (7, 3, 2)))
    def test_int64_path_equals_python_ints(self, q, d, k):
        census = enumerate_census(vandermonde(q, d), k)
        assert census.dense.dtype == np.int64
        assert census.second_moment_sum() == sum(int(c) ** 2 for c in census.dense.tolist())

    def test_wide_counts_keep_python_ints(self):
        # 9^14 tuples: each count squared times the image is past 2^63.
        census = transform_census(vandermonde(3, 1), 14)
        assert census.dense.dtype == np.int64
        assert int(census.dense.max()) ** 2 * census.image_size >= 2 ** 63
        assert census.second_moment_sum() == sum(int(c) ** 2 for c in census.dense.tolist())

    def test_object_counts(self):
        census = transform_census(vandermonde(3, 1), 25)
        assert census.dense.dtype == object
        assert census.second_moment_sum() == sum(int(c) ** 2 for c in census.dense.tolist())


class TestTransformCensus:
    INSTANCES = ((3, 1, 0), (3, 1, 1), (3, 1, 2), (4, 1, 2), (5, 3, 3), (7, 3, 2),
                 (8, 3, 2), (9, 3, 2), (4, 2, 3))

    @pytest.mark.parametrize("q,d,k", INSTANCES)
    def test_matches_the_walk(self, q, d, k):
        dom = vandermonde(q, d)
        walk, transform = enumerate_census(dom, k), transform_census(dom, k)
        assert transform.dense.dtype == np.int64
        assert np.array_equal(transform.dense, walk.dense)
        assert np.array_equal(transform.dense_good, walk.dense_good)
        assert transform.second_moment_sum() == walk.second_moment_sum()

    def test_monomial_domain(self):
        dom = build_monomial_domain(F3, 2, 2)
        for k in (1, 2):
            walk, transform = enumerate_census(dom, k), transform_census(dom, k)
            assert np.array_equal(transform.dense, walk.dense)
            assert np.array_equal(transform.dense_good, walk.dense_good)

    # Captured from the trial-division prime test this walk used before.
    PINNED_PRIMES = {
        (2, 1, 1): [67108859],
        (3, 1, 2): [67108837],
        (4, 2, 3): [67108859],
        (31, 3, 3): [67108739, 67107871],
        (1021, 1, 1): [67108289],
        (9, 2, 5): [67108837, 67108819],
        (7, 1, 30): [67108819, 67108777, 67108763, 67108721, 67108693, 67108511, 67108049],
        (31, 1, 12): [67108739, 67107871, 67107809, 67107499, 67106693],
    }

    @pytest.mark.parametrize("q,d,k", PINNED_PRIMES)
    def test_transform_primes_are_pinned(self, q, d, k):
        assert census_mod._transform_primes(vandermonde(q, d), k) == self.PINNED_PRIMES[q, d, k]

    def test_several_primes_join_exactly(self, monkeypatch):
        # Primes = 1 (mod 5) in (30, 64) are 61, 41 and 31, and 25^3 needs all three.
        monkeypatch.setattr(census_mod, "_PRIME_FLOOR", 30)
        monkeypatch.setattr(census_mod, "_PRIME_CEILING", 64)
        dom = vandermonde(5, 3)
        assert census_mod._transform_primes(dom, 3) == [61, 41, 31]
        walk, transform = enumerate_census(dom, 3), transform_census(dom, 3)
        assert np.array_equal(transform.dense, walk.dense)
        assert np.array_equal(transform.dense_good, walk.dense_good)
        assert transform.image_size == FROZEN_IMAGE_SIZES[(5, 3, 3)]
        # R_1 and R_2 take the leading one and two of the same three primes.
        assert np.array_equal(transform.transversal.preimages, walk.transversal.preimages)

    def test_transform_primes_are_cached_per_range(self, monkeypatch):
        calls = []
        real = census_mod._is_prime
        monkeypatch.setattr(census_mod, "_is_prime", lambda n: calls.append(n) or real(n))
        census_mod._transform_prime.cache_clear()
        dom = vandermonde(7, 1)
        assert census_mod._transform_primes(dom, 30) == self.PINNED_PRIMES[7, 1, 30]
        scanned = len(calls)
        assert scanned > 7
        assert census_mod._transform_primes(dom, 30) == self.PINNED_PRIMES[7, 1, 30]
        assert census_mod._transform_primes(dom, 1) == self.PINNED_PRIMES[7, 1, 30][:1]
        assert len(calls) == scanned
        # Another range is another cache entry: primes = 1 (mod 7) in (30, 64).
        monkeypatch.setattr(census_mod, "_PRIME_FLOOR", 30)
        monkeypatch.setattr(census_mod, "_PRIME_CEILING", 64)
        one = build_explicit_domain([VectorFq.from_index_tuple(F7, (1,))])
        with pytest.raises(ContractError, match="no transform prime left for p = 7"):
            census_mod._transform_primes(one, 3)
        assert census_mod._transform_prime(7, 0, 30, 64) == 43

    def test_python_ints_past_int64(self):
        # 9^25 tuples over 9 points: every count is past 2^63.
        dom = vandermonde(3, 1)
        census = transform_census(dom, 25)
        assert census.total >= 2 ** 63
        assert census.dense.dtype == object
        assert sum(census.dense.tolist()) == census.total
        assert min(census.dense.tolist()) > 2 ** 63
        v_good, y_good = census.good_set_sizes()
        assert sum(census.dense_good.tolist()) == v_good * y_good == 0
        assert census.second_moment_identity().equal

    # Vandermonde GF(3) d=1 by hand: the line measure's transform is 9 at
    # t = 0, 3 at the six t with t_2 != 0 and 0 elsewhere, so the count of
    # x = (x_1, x_2) is 9^(k-1) + 3^(k-1) * c(x), c = 2 at x = 0, -1 at
    # (0, 1) and (0, 2), 0 elsewhere.
    @pytest.mark.parametrize("k,primes,dtype", ((1, 1, np.int64), (14, 2, np.int64),
                                                (19, 3, np.int64), (20, 3, object),
                                                (25, 4, object)))
    def test_pinned_counts_across_prime_counts(self, k, primes, dtype):
        dom = vandermonde(3, 1)
        assert len(census_mod._transform_primes(dom, k)) == primes
        census = transform_census(dom, k)
        assert census.dense.dtype == dtype
        pinned = [9 ** (k - 1) + 3 ** (k - 1) * c for c in (2, -1, -1, 0, 0, 0, 0, 0, 0)]
        assert census.dense.tolist() == pinned

    @pytest.mark.parametrize("engine", (enumerate_census, transform_census))
    def test_attributes_are_read_only(self, engine):
        census = engine(vandermonde(5, 1), 1)
        census.dense_good, census.hit_tally
        for name in ("domain", "k", "dense", "_good", "_hits"):
            with pytest.raises(AttributeError):
                setattr(census, name, 3)
        assert census.total == 25 and census.k == 1

    def test_counts_past_the_walk_cap(self):
        # 25^7 = 6.1e9 tuples: the walk refuses, the transform is exact.
        dom = vandermonde(5, 3)
        census = transform_census(dom, 7)
        assert census.image_size == 5 ** 4
        assert sum(census.dense.tolist()) == 25 ** 7
        assert census.second_moment_identity().equal
        three = transform_census(dom, 3)
        v_good, y_good = three.good_set_sizes()
        assert sum(three.dense_good.tolist()) == v_good * y_good

    @pytest.mark.parametrize("q,k,unit", ((11, 3000, "transform primes"),
                                          (11, 2_000_000, "transform primes"),
                                          (31, 11, "residues")))
    def test_caps(self, q, k, unit):
        with pytest.raises(ResourceCapError, match=f"census needs \\d+ {unit}"):
            transform_census(vandermonde(q, 3), k)

    def test_no_prime_above_the_input_pairs(self, monkeypatch):
        monkeypatch.setattr(census_mod, "_PRIME_FLOOR", 16)
        with pytest.raises(ResourceCapError, match="census needs 25 input pairs, cap is 16"):
            transform_census(vandermonde(5, 3), 1)

    def test_walk_refuses_a_codomain_it_cannot_hold(self):
        one = VectorFq.from_index_tuple(FieldParams(2), (1,) * 23)
        with pytest.raises(ResourceCapError, match="census needs 8388608 points"):
            enumerate_census(build_explicit_domain([one]), 1)

    def test_residue_cap_boundary(self):
        # One prime per point at k=1: GF(2)^22 is exactly at the cap, GF(2)^23 over it.
        for n, fits in ((22, True), (23, False)):
            dom = build_explicit_domain([VectorFq.from_index_tuple(FieldParams(2), (1,) * n)])
            if fits:
                assert len(census_mod._transform_primes(dom, 1)) == 1
            else:
                with pytest.raises(ResourceCapError,
                                   match=f"census needs {2 ** n} residues, cap is {2 ** 22}"):
                    census_mod._transform_primes(dom, 1)

    def test_good_counts_are_lazy(self):
        census = transform_census(vandermonde(5, 3), 2)
        assert "dense_good" not in vars(census)
        walk = enumerate_census(vandermonde(5, 3), 2)
        assert np.array_equal(census.dense_good, walk.dense_good)
        assert "dense_good" in vars(census)

    def test_one_forward_transform_per_census(self, monkeypatch):
        # Counts, good counts and the transversal's reachable sets all read
        # the N(t) the census computed once.
        forward = []
        dft = census_mod._dft

        def counting_dft(values, p, axes, ell, *, inverse=False):
            forward.append(not inverse)
            return dft(values, p, axes, ell, inverse=inverse)

        monkeypatch.setattr(census_mod, "_dft", counting_dft)
        census = transform_census(vandermonde(5, 3), 3)
        census.dense_good
        census.transversal
        assert sum(forward) == 1
        assert len(forward) > 1  # the inverse transforms did run

    def test_the_census_owns_n_and_each_level_plan(self, monkeypatch):
        # One prime plan per level transform, made before N(t) on the first
        # (the cap check), plus one for the line transform; N(t) counted once.
        levels, plans, tallies = [], [], []
        level, primes, bincount = PreimageCensus._level, census_mod._transform_primes, np.bincount
        monkeypatch.setattr(PreimageCensus, "_level",
                            lambda self, j, *rest: levels.append(j) or level(self, j, *rest))
        monkeypatch.setattr(census_mod, "_transform_primes",
                            lambda domain, j: plans.append(j) or primes(domain, j))

        def counting_bincount(values, *args, **kwargs):
            if len(values) == 5 ** 4:  # a q^n array: N(t) itself
                tallies.append(values)
            return bincount(values, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting_bincount)
        census = transform_census(vandermonde(5, 3), 3)
        census.dense, census.dense_good, census.transversal, census.hit_tally
        assert levels == [3, 3, 1, 2]
        assert plans == [3, 1, 3, 1, 2]
        assert len(tallies) == 1
        assert np.array_equal(census.dense_good, enumerate_census(census.domain, 3).dense_good)

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 31))
    @pytest.mark.parametrize("inverse", (False, True), ids=("forward", "inverse"))
    def test_dft_residues_at_the_largest_products(self, p, inverse):
        # Every entry at ell - 1 makes every row of products (ell - 1)^2 * p,
        # the worst case the reduction sees; a few smaller entries on top.
        ell = census_mod._transform_primes(vandermonde(p, 1), 1)[0]
        axes = 3 if p < 11 else 2
        values = np.full(p ** axes, ell - 1, dtype=np.int64)
        values[:3] = (0, 1, ell // 2)
        got = census_mod._dft(values.copy(), p, axes, ell, inverse=inverse).tolist()
        root = next(r for r in (pow(g, (ell - 1) // p, ell) for g in range(2, ell)) if r != 1)
        root, scale = (pow(root, -1, ell), pow(p, -axes, ell)) if inverse else (root, 1)
        powers = [pow(root, e, ell) for e in range(p)]
        digits = list(itertools.product(range(p), repeat=axes))
        want = [sum(v * powers[sum(a * b for a, b in zip(s, t)) % p]
                    for v, t in zip(values.tolist(), digits)) * scale % ell for s in digits]
        assert got == want

    @pytest.mark.parametrize("engine", (enumerate_census, transform_census))
    def test_count_arrays_are_read_only(self, engine):
        census = engine(vandermonde(5, 3), 2)
        census.transversal  # a walk census computes N(t) here
        for array in (census.dense, census.dense_good, census._hits, census.hit_tally):
            with pytest.raises(ValueError):
                array[array != 0] = 0
        assert census.image_size == FROZEN_IMAGE_SIZES[(5, 3, 2)]

    def test_count_views_are_read_only(self):
        # The counts are handed out as read-only arrays alone, no mapping views.
        walk = enumerate_census(vandermonde(4, 2), 2)
        transform = transform_census(vandermonde(4, 2), 2)
        for array in (walk.dense, walk.dense_good, transform.dense, transform.dense_good):
            before = array[0]
            with pytest.raises(ValueError):
                array[0] = 999
            assert array[0] == before
        assert counts_of(transform) == counts_of(walk)
        assert good_counts_of(transform) == good_counts_of(walk)
        assert sum(counts_of(walk).values()) == walk.total

    def test_image_keys_follow_flat_order(self):
        census = transform_census(vandermonde(4, 2), 2)
        assert rows_to_flat(census.image_keys, 4).tolist() == np.flatnonzero(census.dense).tolist()
        assert list(counts_of(census)) == list(map(tuple, census.image_keys.tolist()))
        # Canonical and distinct already, the keys make a Domain as they are.
        assert Domain(census.domain.params, census.image_keys).indices.tolist() == \
            census.image_keys.tolist()


class TestCensusIsDomainAndK:
    """A census is (domain, k): its arrays are derived on first read, and
    the walk seeds the two it tallies."""

    def test_init_fields_are_domain_and_k(self):
        assert [f.name for f in dataclasses.fields(PreimageCensus)] == ["domain", "k"]
        dom = vandermonde(3, 1)
        with pytest.raises(TypeError):
            PreimageCensus(dom, 1, np.array([1, 2, 3]))
        # A negative k once gave a float total.
        with pytest.raises(ParameterError, match="query count must be an integer >= 0, got -1"):
            PreimageCensus(dom, -1)
        with pytest.raises(ParameterError, match="query count must be an integer >= 0, got True"):
            PreimageCensus(dom, True)
        assert PreimageCensus(dom, 1).success_probability() == Fraction(7, 9)

    def test_walk_arrays_are_its_own(self, monkeypatch):
        # census-totals compares two engines, not the transform with itself.
        dom = vandermonde(5, 3)
        transform = transform_census(dom, 2)
        transform.dense_good

        def refused(*args, **kwargs):
            raise AssertionError("a walk census derived a tallied array")

        # Every derived array, N(t) and each level alike, goes through _dft.
        monkeypatch.setattr(census_mod, "_dft", refused)
        walk = enumerate_census(dom, 2)
        assert np.array_equal(walk.dense, transform.dense)
        assert np.array_equal(walk.dense_good, transform.dense_good)

    @pytest.mark.parametrize("engine", (enumerate_census, transform_census))
    def test_copies_rederive_the_arrays(self, engine):
        census = engine(vandermonde(5, 3), 2)
        for back in copies(census):
            assert not {"dense", "dense_good", "_hits"} & set(vars(back))
            for name in ("dense", "dense_good", "_hits", "hit_tally"):
                array = getattr(back, name)
                assert np.array_equal(array, getattr(census, name))
                assert not array.flags.writeable


class TestGoodSets:
    def test_spec_values(self):
        dom = vandermonde(5, 3)
        assert PreimageCensus(dom, 2).good_set_sizes() == (20, 16)
        assert PreimageCensus(dom, 0).good_set_sizes() == (1, 1)
        assert PreimageCensus(dom, 1).good_set_sizes() == (5, 4)

    def test_k_above_domain_size(self):
        dom = vandermonde(3, 1)
        assert PreimageCensus(dom, 4).good_set_sizes() == (0, 2 ** 4)

    def test_dichotomy_on_verified_instances(self):
        for q, d, k in ((3, 1, 1), (4, 1, 1), (5, 3, 1), (5, 3, 2), (7, 3, 2)):
            dom = vandermonde(q, d)
            assert dom.independence().status == "verified"
            assert 2 * k <= dom.n
            census = enumerate_census(dom, k)
            allowed = {math.factorial(k)}
            assert set(good_counts_of(census).values()) <= allowed

    def test_lower_bound_values(self):
        assert PreimageCensus(vandermonde(3, 1), 1).image_size_lower_bound() == 6
        assert PreimageCensus(vandermonde(5, 3), 2).image_size_lower_bound() == 160
        assert PreimageCensus(vandermonde(5, 3), 0).image_size_lower_bound() == 1

    def test_lower_bound_below_enumerated_image(self):
        for q, d, k in ((3, 1, 1), (5, 3, 1), (5, 3, 2), (7, 3, 2)):
            dom = vandermonde(q, d)
            census = enumerate_census(dom, k)
            assert census.image_size >= census.image_size_lower_bound()

    def test_lower_bound_needs_small_k(self):
        with pytest.raises(ContractError, match="2k <= n"):
            PreimageCensus(vandermonde(3, 1), 2).image_size_lower_bound()

    def test_lower_bound_needs_independence(self):
        dom = build_monomial_domain(F3, 2, 2)
        with pytest.raises(ContractError, match="refuted"):
            PreimageCensus(dom, 1).image_size_lower_bound()


class TestTransversal:
    def test_q3_frozen_choices(self):
        trans = enumerate_census(vandermonde(3, 1), 1).transversal
        picks = {
            key: ([v.index_tuple() for v in vectors], [w.index() for w in weights])
            for key, (vectors, weights) in transversal_pairs(trans).items()
        }
        assert picks == {
            (0, 0): ([(1, 0)], [0]),
            (1, 0): ([(1, 0)], [1]),
            (1, 1): ([(1, 1)], [1]),
            (1, 2): ([(1, 2)], [1]),
            (2, 0): ([(1, 0)], [2]),
            (2, 1): ([(1, 2)], [2]),
            (2, 2): ([(1, 1)], [2]),
        }

    def test_one_pair_per_image_point(self):
        for q, d, k in ((3, 1, 1), (5, 3, 2), (4, 1, 2)):
            dom = vandermonde(q, d)
            census = enumerate_census(dom, k)
            trans = enumerate_census(dom, k).transversal
            assert set(transversal_pairs(trans)) == set(counts_of(census))

    def test_every_pair_maps_back(self):
        dom = vandermonde(5, 3)
        trans = enumerate_census(dom, 2).transversal
        for key, (vectors, weights) in transversal_pairs(trans).items():
            assert linear_combination(vectors, weights).index_tuple() == key

    def test_deterministic(self):
        a = enumerate_census(vandermonde(5, 3), 2).transversal
        b = enumerate_census(vandermonde(5, 3), 2).transversal
        assert {k: (tuple(v.index_tuple() for v in vs), tuple(w.index() for w in ws))
                for k, (vs, ws) in transversal_pairs(a).items()} == \
               {k: (tuple(v.index_tuple() for v in vs), tuple(w.index() for w in ws))
                for k, (vs, ws) in transversal_pairs(b).items()}

    def test_arrays_match_pairs(self):
        dom = vandermonde(4, 1)
        trans = enumerate_census(dom, 2).transversal
        assert trans.keys.shape == trans.preimages.shape == (trans.size, 2)
        pairs = transversal_pairs(trans)
        domain_vectors = vectors_of(dom)
        for key, row in zip(trans.keys.tolist(), trans.preimages.tolist()):
            vectors, elements = pairs[tuple(key)]
            assert [domain_vectors.index(v) * 4 + w.index()
                    for v, w in zip(vectors, elements)] == row
        for array in (trans.keys, trans.preimages):
            with pytest.raises(ValueError):
                array[0, 0] = 1

    @pytest.mark.parametrize("q,d,k", ((3, 1, 1), (3, 1, 2), (4, 1, 2), (5, 1, 2),
                                       (5, 3, 2), (4, 2, 2), (3, 1, 3), (7, 1, 2)))
    def test_lexicographically_first_preimage(self, q, d, k):
        # Brute force: every sequence of (position, weight) pairs in
        # lexicographic order; the first one to reach a target is its pick.
        dom = vandermonde(q, d)
        params = dom.params
        pairs = [(j, y) for j in range(dom.size) for y in range(q)]
        vectors = vectors_of(dom)
        first = {}
        for sequence in itertools.product(pairs, repeat=k):
            positions = [j for j, _ in sequence]
            weights = [y for _, y in sequence]
            key = linear_combination([vectors[j] for j in positions],
                                     [params.elements()[y] for y in weights],
                                     params=params, n=dom.n).index_tuple()
            first.setdefault(key, (positions, weights))
        keys = sorted(first)
        for census in (enumerate_census(dom, k), transform_census(dom, k)):
            trans = census.transversal
            assert trans.keys.tolist() == [list(key) for key in keys]
            positions, weights = np.divmod(trans.preimages, q)
            assert positions.tolist() == [first[key][0] for key in keys]
            assert weights.tolist() == [first[key][1] for key in keys]

    @pytest.mark.parametrize("q,d,k", ((3, 1, 3), (5, 3, 3), (4, 2, 3), (7, 3, 2)))
    def test_table_and_scan_pick_the_same_pairs(self, q, d, k):
        # The picker chooses between two searches by cost; on every point of
        # the codomain and every reachable set they must agree.
        dom = vandermonde(q, d)
        params = dom.params
        add = params.add_rows()
        lines = params.mul_rows()[:, dom.indices].transpose(1, 0, 2).reshape(-1, dom.n)
        steps = np.argmin(add, axis=1)[lines]
        every_point = flat_to_rows(np.arange(q ** dom.n), q, dom.n)
        for reachable in (transform_census(dom, j).dense != 0 for j in range(k)):
            table = census_mod._first_pairs_by_table(params, lines, reachable, every_point)
            scan = census_mod._first_pairs_by_scan(params, steps, reachable, every_point)
            assert np.array_equal(table, scan)

    @pytest.mark.parametrize("block", (1, 7, 1 << 16))
    @pytest.mark.parametrize("seed", range(4))
    def test_scatter_equals_the_per_pair_table(self, monkeypatch, seed, block):
        # The table path as one write per pair, last pair first, so the
        # least pair index lands on every point; on random explicit domains
        # and reachable sets, with the scatter split into blocks of pairs.
        rng = np.random.default_rng(seed)
        params = (F3, F4, F5, FieldParams(3, 2))[seed]
        q, n = params.q, 3 if params.q < 9 else 2
        dom = Domain(params, rng.integers(0, q, size=(int(rng.integers(1, 6)), n)), "random")
        add = params.add_rows()
        lines = params.mul_rows()[:, dom.indices].transpose(1, 0, 2).reshape(-1, n)
        every_point = flat_to_rows(np.arange(q ** n), q, n)
        monkeypatch.setattr(errors, "BLOCK_ENTRIES", block)
        for density in (0.05, 0.5, 1.0):
            reachable = rng.random(q ** n) < density
            reachable[0] = True
            first = np.full(q ** n, len(lines), dtype=np.intp)
            members = every_point[reachable]
            for pair in reversed(range(len(lines))):
                first[rows_to_flat(add[members, lines[pair]], q)] = pair
            got = census_mod._first_pairs_by_table(params, lines, reachable, every_point)
            assert np.array_equal(got, first)

    def test_k0(self):
        trans = enumerate_census(vandermonde(3, 1), 0).transversal
        assert transversal_pairs(trans) == {(0, 0): ((), ())}

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_census(vandermonde(5, 3), 9).transversal  # 25^9 tuples

    def test_negative_k_is_a_parameter_error(self):
        trans = enumerate_census(vandermonde(3, 1), 1).transversal
        with pytest.raises(ParameterError, match="query count must be an integer >= 0, got -1"):
            Transversal(trans.domain, -1, trans.preimages)

    @pytest.mark.parametrize("q,d,k", ((4, 2, 2), (4, 1, 3), (9, 1, 2), (9, 2, 1)))
    def test_keys_are_the_sums_of_the_preimages(self, q, d, k):
        # Random pre-image rows, repeats dropped: each key is the FieldElement
        # sum of the weighted vectors its row names.
        dom = vandermonde(q, d)
        vectors, elements = vectors_of(dom), dom.params.elements()
        rng = np.random.default_rng(k * 10 + d)
        sums = {}
        for row in rng.integers(0, dom.size * q, size=(40, k)).tolist():
            positions, weights = zip(*(divmod(i, q) for i in row))
            key = linear_combination([vectors[j] for j in positions],
                                     [elements[y] for y in weights]).index_tuple()
            sums.setdefault(key, row)
        trans = Transversal(dom, k, list(sums.values()))
        assert trans.keys.tolist() == [list(key) for key in sums]
        assert transversal_pairs(trans).keys() == sums.keys()


class TestImageDomain:
    """The image, held as a Domain of its points."""

    def test_canonical_order(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        image = Domain(census.domain.params, census.image_keys)
        keys = list(map(tuple, image.indices.tolist()))
        assert keys == sorted(keys) == list(counts_of(census))
        assert image.size == census.image_size == 7

    def test_keys_array(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        image = Domain(census.domain.params, census.image_keys)
        assert image.indices.tolist() == [list(z) for z in counts_of(census)]
        for keys in (census.image_keys, image.indices):
            with pytest.raises(ValueError):
                keys[0, 0] = 1


def copies(obj):
    """A pickle round trip and a deep copy of obj."""
    return pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)


class TestCopies:
    """Pickling and deep-copying rebuild each census type through its
    constructor: arrays come back read-only and the checks run again."""

    @pytest.mark.parametrize("engine", (enumerate_census, transform_census))
    def test_census(self, engine):
        census = engine(vandermonde(5, 3), 2)
        census.dense_good, census.hit_tally
        for back in copies(census):
            assert back.domain.same_as(census.domain) and back.k == census.k
            for name in ("dense", "dense_good", "_hits"):
                array = getattr(back, name)
                assert np.array_equal(array, getattr(census, name))
                assert not array.flags.writeable
            assert back.image_size == FROZEN_IMAGE_SIZES[(5, 3, 2)]

    def test_transversal(self):
        trans = enumerate_census(vandermonde(3, 1), 1).transversal
        for back in copies(trans):
            for name in ("keys", "preimages"):
                assert np.array_equal(getattr(back, name), getattr(trans, name))
                assert not getattr(back, name).flags.writeable
            assert transversal_pairs(back) == transversal_pairs(trans)
        # The keys are rebuilt from the pre-images, not copied.
        object.__setattr__(trans, "keys", trans.keys[::-1])
        for back in copies(trans):
            assert np.array_equal(back.keys, trans.keys[::-1])
        # Index -1 would read as the last (vector, weight) pair in numpy's gathers.
        object.__setattr__(trans, "preimages", trans.preimages - 9)
        with pytest.raises(ParameterError, match=r"indices must lie in \[0, 9\)"):
            pickle.loads(pickle.dumps(trans))


class TestSecondMoment:
    INSTANCES = (
        (3, 1, 1), (3, 1, 2), (4, 1, 1), (4, 1, 2),
        (5, 1, 2), (5, 3, 2), (5, 3, 3), (7, 3, 1),
        (9, 3, 1),
    )

    @pytest.mark.parametrize("q,d,k", INSTANCES)
    def test_exact_equality(self, q, d, k):
        dom = vandermonde(q, d)
        check = PreimageCensus(dom, k).second_moment_identity()
        assert check.equal
        assert Fraction(check.lhs) == check.rhs
        assert check.lhs == FROZEN_SECOND_MOMENTS.get((q, d, k), check.lhs)

    def test_monomial_instance(self):
        dom = build_monomial_domain(F3, 2, 2)
        check = PreimageCensus(dom, 1).second_moment_identity()
        assert check.equal
        assert check.lhs == 99

    def test_k0(self):
        check = PreimageCensus(vandermonde(3, 1), 0).second_moment_identity()
        assert (check.lhs, check.rhs, check.equal) == (1, 1, True)

    def test_census_less_call_past_the_walk_cap(self):
        # 887503681 tuples: the walk refuses them, the transform census does not.
        census = PreimageCensus(build_vandermonde_domain(FieldParams(31), 3), 3)
        assert census.second_moment_identity().equal


class TestHitTally:
    DOMAINS = {
        "gf5-d3": lambda: vandermonde(5, 3),
        "gf8-d2": lambda: vandermonde(8, 2),
        "gf16-d2": lambda: vandermonde(16, 2),
        "gf27-d2": lambda: vandermonde(27, 2),  # 27^3 points: several direct blocks
        "gf3-monomial-2-2": lambda: build_monomial_domain(F3, 2, 2),
    }

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_equals_the_direct_reference(self, name):
        dom = self.DOMAINS[name]()
        tally = transform_census(dom, 1).hit_tally
        assert np.array_equal(tally, census_mod._direct_hit_tally(dom))
        assert tally.sum() == dom.params.q ** dom.n
        assert np.array_equal(enumerate_census(dom, 1).hit_tally, tally)

    @pytest.mark.parametrize("size,dtype", ((27, np.uint8), (255, np.uint8),
                                            (256, np.uint16), (300, np.uint16)))
    def test_hits_take_the_narrowest_unsigned_dtype(self, size, dtype):
        # N(t) lies in [0, |V|]: one byte per point up to 255 vectors.
        dom = Domain(F3, flat_to_rows(np.arange(1, size + 1), 3, 6))
        census = transform_census(dom, 1)
        assert census._hits.dtype == dtype and not census._hits.flags.writeable
        assert np.array_equal(census.hit_tally, census_mod._direct_hit_tally(dom))
        assert census.hit_tally[size] >= 1  # t = 0 at h = |V|

    def test_gf8_hits_differ_point_by_point(self):
        # N(t) is indexed by digit characters: on GF(8) it is the field's
        # orthogonal count relabelled, so only the histograms agree.
        dom = vandermonde(8, 2)
        points = flat_to_rows(np.arange(8 ** dom.n), 8, dom.n)
        direct = sum((census_mod.dot_rows(dom.params, v, points) == 0).astype(np.int64)
                     for v in dom.indices)
        hits = transform_census(dom, 1)._hits
        assert not np.array_equal(hits, direct)
        assert np.array_equal(np.bincount(hits), np.bincount(direct))

    def test_direct_reference_is_capped(self):
        with pytest.raises(ResourceCapError, match="direct hit tally needs"):
            census_mod._direct_hit_tally(vandermonde(31, 5))


class TestChebyshev:
    def test_q3_vacuous_bound(self):
        dom = vandermonde(3, 1)
        assert PreimageCensus(dom, 1).chebyshev_zero_bound() == Fraction(2, 3)
        census = enumerate_census(dom, 1)
        assert census.zero_count_fraction() == Fraction(2, 9)

    def test_q5_d3_k3_bound(self):
        dom = vandermonde(5, 3)
        bound = PreimageCensus(dom, 3).chebyshev_zero_bound()
        assert bound == Fraction(1484, 625)
        census = enumerate_census(dom, 3)
        assert census.chebyshev_zero_bound() == bound
        observed = census.zero_count_fraction()
        assert observed == Fraction(24, 625)
        assert observed <= bound

    def test_zero_touching_empty_leaves_the_bound_positive(self):
        # |V_0| = 0, yet t = (1, 2) is orthogonal to (1, 1).
        vs = [VectorFq.from_index_tuple(F3, t) for t in ((1, 1), (1, 2), (2, 1))]
        dom = build_explicit_domain(vs)
        assert dom.zero_touching_count() == 0
        assert PreimageCensus(dom, 1).chebyshev_zero_bound() == Fraction(10, 9)
        assert enumerate_census(dom, 1).zero_count_fraction() == Fraction(4, 9)

    def test_old_formula_fails_at_gf7_d4_k3(self):
        # q^n (|V_0|/|V|)^(2k) assumed N(t) <= |V_0| for t != 0, but a nonzero
        # t is a polynomial of degree <= 4, which can have 4 roots.
        dom = vandermonde(7, 4)
        census = transform_census(dom, 3)
        observed = census.zero_count_fraction()
        old = 7 ** dom.n * Fraction(dom.zero_touching_count(), dom.size) ** 6
        assert old == Fraction(1, 7)
        assert observed == Fraction(8868, 16807) > old
        assert census.largest_hyperplane_section == 4 > dom.zero_touching_count()
        bound = census.chebyshev_zero_bound()
        assert bound == Fraction(242412, 16807)
        assert observed <= bound

    def test_census_less_bound_equals_the_census_bound(self):
        shapes = [(build_vandermonde_domain, q, (d,), ks) for q, d, ks in VANDERMONDE_GRID]
        shapes += [(build_monomial_domain, q, (m, d), ks) for q, m, d, ks in MONOMIAL_GRID]
        for build, q, shape, ks in shapes:
            dom = build(parse_field_spec(str(q)), *shape)
            for k in ks:
                lazy = PreimageCensus(dom, k)
                assert lazy.chebyshev_zero_bound() == enumerate_census(dom, k).chebyshev_zero_bound()
                # The bound reads N(t) alone: no count array is derived.
                assert not {"dense", "dense_good"} & set(vars(lazy))

    def test_holds_across_grid(self):
        for q, d, k in FROZEN_IMAGE_SIZES:
            dom = vandermonde(q, d)
            census = enumerate_census(dom, k)
            assert census.zero_count_fraction() <= PreimageCensus(dom, k).chebyshev_zero_bound()
