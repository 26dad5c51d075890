"""Census layer: exact pre-image counts and the identities hanging off them.

Expected numbers in this file were frozen from an independent brute-force
enumeration (plain integer arithmetic modulo p and hand-built GF(4)
tables), not from the package under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qvint.census import (ImageSet, Preimage, chebyshev_zero_bound,
                          enumerate_census, good_set_sizes, image_set,
                          image_size_lower_bound,
                          linear_combination, second_moment_identity_check)
from qvint.domain import (VectorFq, build_explicit_domain,
                          build_monomial_domain, build_vandermonde_domain)
from qvint.errors import ContractError, ParameterError, ResourceCapError
from qvint.field import FieldParams, parse_field_spec

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
        with pytest.raises(ParameterError):
            linear_combination([], [])

    def test_length_mismatch(self):
        vs = [VectorFq.from_index_tuple(F3, (1, 2))]
        with pytest.raises(ParameterError):
            linear_combination(vs, [])

    def test_preimage_validation(self):
        v = VectorFq.from_index_tuple(F3, (1, 2))
        Preimage((v,), (F3.one(),))
        with pytest.raises(ParameterError):
            Preimage((v,), ())
        with pytest.raises(ParameterError):
            Preimage((v,), (F5.one(),))


class TestSmallCensus:
    def test_q3_full_census(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        assert dict(census.counts) == {
            (0, 0): 3, (1, 0): 1, (1, 1): 1, (1, 2): 1,
            (2, 0): 1, (2, 1): 1, (2, 2): 1,
        }
        assert census.image_size == 7
        assert sum(census.counts.values()) == 9

    def test_q3_good_counts(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        assert census.good_count_of(VectorFq.from_index_tuple(F3, (1, 2))) == 1
        assert census.good_count_of(VectorFq.from_index_tuple(F3, (0, 0))) == 0
        assert census.good_count_of(VectorFq.from_index_tuple(F3, (2, 1))) == 1
        assert sum(census.good_counts.values()) == 6

    def test_k0_census(self):
        census = enumerate_census(vandermonde(3, 1), 0)
        assert census.counts == {(0, 0): 1}
        assert census.good_counts == {(0, 0): 1}
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
        v_good, y_good = good_set_sizes(dom, k)
        assert sum(census.counts.values()) == (dom.size * dom.params.q) ** k
        assert sum(census.good_counts.values()) == v_good * y_good
        assert census.mean() * census.codomain_size == census.total

    @pytest.mark.parametrize("q,d,k", GRID)
    def test_zero_always_in_image(self, q, d, k):
        dom = vandermonde(q, d)
        census = enumerate_census(dom, k)
        zero = VectorFq.from_index_tuple(dom.params, (0,) * dom.n)
        assert census.count_of(zero) >= 1

    @pytest.mark.parametrize("q,d", ((3, 1), (5, 3), (4, 1)))
    def test_image_monotone_in_k(self, q, d):
        dom = vandermonde(q, d)
        previous = {(0,) * dom.n}
        for k in (0, 1, 2):
            current = set(enumerate_census(dom, k).counts)
            assert previous <= current
            previous = current

    def test_variance_definition(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        mu = census.mean()
        assert census.variance() == Fraction(15, 9) - mu * mu

    def test_tuple_cap(self):
        with pytest.raises(ResourceCapError, match="3814697265625"):
            enumerate_census(vandermonde(5, 3), 9, max_tuples=10 ** 6)

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            enumerate_census(vandermonde(3, 1), -1)


class TestGoodSets:
    def test_spec_values(self):
        dom = vandermonde(5, 3)
        assert good_set_sizes(dom, 2) == (20, 16)
        assert good_set_sizes(dom, 0) == (1, 1)
        assert good_set_sizes(dom, 1) == (5, 4)

    def test_k_above_domain_size(self):
        dom = vandermonde(3, 1)
        assert good_set_sizes(dom, 4) == (0, 2 ** 4)

    def test_dichotomy_on_verified_instances(self):
        for q, d, k in ((3, 1, 1), (4, 1, 1), (5, 3, 1), (5, 3, 2), (7, 3, 2)):
            dom = vandermonde(q, d)
            assert dom.independence().status == "verified"
            assert 2 * k <= dom.n
            census = enumerate_census(dom, k)
            allowed = {math.factorial(k)}
            assert set(census.good_counts.values()) <= allowed

    def test_lower_bound_values(self):
        assert image_size_lower_bound(vandermonde(3, 1), 1) == 6
        assert image_size_lower_bound(vandermonde(5, 3), 2) == 160
        assert image_size_lower_bound(vandermonde(5, 3), 0) == 1

    def test_lower_bound_below_enumerated_image(self):
        for q, d, k in ((3, 1, 1), (5, 3, 1), (5, 3, 2), (7, 3, 2)):
            dom = vandermonde(q, d)
            census = enumerate_census(dom, k)
            assert census.image_size >= image_size_lower_bound(dom, k)

    def test_lower_bound_needs_small_k(self):
        with pytest.raises(ContractError, match="2k <= n"):
            image_size_lower_bound(vandermonde(3, 1), 2)

    def test_lower_bound_needs_independence(self):
        dom = build_monomial_domain(F3, 2, 2)
        with pytest.raises(ContractError, match="refuted"):
            image_size_lower_bound(dom, 1)


class TestTransversal:
    def test_q3_frozen_choices(self):
        trans = enumerate_census(vandermonde(3, 1), 1).transversal
        picks = {
            key: ([v.index_tuple() for v in pre.vectors],
                  [w.index() for w in pre.weights])
            for key, pre in trans.pairs.items()
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
            assert set(trans.pairs) == set(census.counts)

    def test_every_pair_maps_back(self):
        dom = vandermonde(5, 3)
        trans = enumerate_census(dom, 2).transversal
        for key, pre in trans.pairs.items():
            z = linear_combination(pre.vectors, pre.weights)
            assert z.index_tuple() == key

    def test_deterministic(self):
        a = enumerate_census(vandermonde(5, 3), 2).transversal
        b = enumerate_census(vandermonde(5, 3), 2).transversal
        assert {k: (tuple(v.index_tuple() for v in p.vectors),
                    tuple(w.index() for w in p.weights))
                for k, p in a.pairs.items()} == \
               {k: (tuple(v.index_tuple() for v in p.vectors),
                    tuple(w.index() for w in p.weights))
                for k, p in b.pairs.items()}

    def test_arrays_match_pairs(self):
        dom = vandermonde(4, 1)
        trans = enumerate_census(dom, 2).transversal
        assert trans.keys.shape == (trans.size, 2)
        assert trans.positions.shape == trans.weights.shape == (trans.size, 2)
        for key, positions, weights in zip(trans.keys.tolist(), trans.positions.tolist(),
                                           trans.weights.tolist()):
            pre = trans.pairs[tuple(key)]
            assert [dom.vectors.index(v) for v in pre.vectors] == positions
            assert [w.index() for w in pre.weights] == weights
        for array in (trans.keys, trans.positions, trans.weights):
            with pytest.raises(ValueError):
                array[0, 0] = 1

    def test_k0(self):
        trans = enumerate_census(vandermonde(3, 1), 0).transversal
        assert set(trans.pairs) == {(0, 0)}
        pre = trans.pairs[(0, 0)]
        assert pre.vectors == () and pre.weights == ()

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_census(vandermonde(5, 3), 9).transversal  # 25^9 tuples


class TestImageSet:
    def test_canonical_order(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        image = image_set(census)
        keys = [z.index_tuple() for z in image.elements]
        assert keys == sorted(keys)
        assert image.size == 7

    def test_membership(self):
        census = enumerate_census(vandermonde(3, 1), 1)
        image = image_set(census)
        assert VectorFq.from_index_tuple(F3, (1, 2)) in image
        assert VectorFq.from_index_tuple(F3, (0, 1)) not in image
        assert "not a vector" not in image
        # Same index tuple over another field, and a member padded to length 3.
        assert VectorFq.from_index_tuple(F5, (1, 2)) not in image
        assert VectorFq.from_index_tuple(F3, (1, 2, 0)) not in image

    def test_keys_array(self):
        image = image_set(enumerate_census(vandermonde(3, 1), 1))
        assert image.keys.tolist() == [list(z.index_tuple()) for z in image.elements]
        with pytest.raises(ValueError):
            image.keys[0, 0] = 1
        empty = ImageSet(params=F3, n=2, keys=np.empty((0, 2), np.intp))
        assert empty.keys.shape == (0, 2)
        assert VectorFq.from_index_tuple(F3, (0, 0)) not in empty


class TestSecondMoment:
    INSTANCES = (
        (3, 1, 1), (3, 1, 2), (4, 1, 1), (4, 1, 2),
        (5, 1, 2), (5, 3, 2), (5, 3, 3), (7, 3, 1),
        (9, 3, 1),  # 9^4 points t: more than one right-side block
    )

    @pytest.mark.parametrize("q,d,k", INSTANCES)
    def test_exact_equality(self, q, d, k):
        dom = vandermonde(q, d)
        check = second_moment_identity_check(dom, k)
        assert check.equal
        assert Fraction(check.lhs) == check.rhs
        assert check.lhs == FROZEN_SECOND_MOMENTS.get((q, d, k), check.lhs)

    def test_monomial_instance(self):
        dom = build_monomial_domain(F3, 2, 2)
        check = second_moment_identity_check(dom, 1)
        assert check.equal
        assert check.lhs == 99

    def test_k0(self):
        check = second_moment_identity_check(vandermonde(3, 1), 0)
        assert (check.lhs, check.rhs, check.equal) == (1, 1, True)

    def test_census_reuse_must_match(self):
        dom = vandermonde(3, 1)
        census = enumerate_census(dom, 1)
        with pytest.raises(ParameterError):
            second_moment_identity_check(dom, 2, census=census)
        # Same index rows over two models of GF(9) are different domains.
        dom_a = build_vandermonde_domain(FieldParams(3, 2, modulus=(1, 0, 1)), 1)
        dom_b = build_vandermonde_domain(FieldParams(3, 2, modulus=(2, 1, 1)), 1)
        assert np.array_equal(dom_a.indices, dom_b.indices)
        with pytest.raises(ParameterError):
            second_moment_identity_check(dom_a, 1, census=enumerate_census(dom_b, 1))
        # An equal domain built separately is accepted.
        assert second_moment_identity_check(vandermonde(3, 1), 1, census=census).equal


class TestChebyshev:
    def test_q3_vacuous_bound(self):
        dom = vandermonde(3, 1)
        assert chebyshev_zero_bound(dom, 1) == 1
        census = enumerate_census(dom, 1)
        assert census.zero_count_fraction() == Fraction(2, 9)

    def test_q5_d3_k3_bound(self):
        dom = vandermonde(5, 3)
        bound = chebyshev_zero_bound(dom, 3)
        assert bound == Fraction(1, 25)
        census = enumerate_census(dom, 3)
        observed = census.zero_count_fraction()
        assert observed == Fraction(24, 625)
        assert observed <= bound

    def test_zero_touching_empty_means_zero_bound(self):
        vs = [VectorFq.from_index_tuple(F3, t) for t in ((1, 1), (1, 2), (2, 1))]
        dom = build_explicit_domain(vs)
        assert dom.zero_touching_count() == 0
        assert chebyshev_zero_bound(dom, 1) == 0

    def test_holds_across_grid(self):
        for q, d, k in FROZEN_IMAGE_SIZES:
            dom = vandermonde(q, d)
            census = enumerate_census(dom, k)
            assert census.zero_count_fraction() <= chebyshev_zero_bound(dom, k)
