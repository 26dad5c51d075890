"""Property tests: the integer-array core against the object-level oracle.

The flat-index codec, the vectorised dot product (one secret or a batch),
the census walk and the simulator's array path, success probabilities
included, are checked on random inputs against VectorFq, domain.dot, a
brute-force scan over linear_combination and the Kronecker-product
fourier_state of tests/oracles.py, which share none of their code.  The
transform census is checked against the walk.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (counts_of, fourier_state, good_counts_of, inner, linear_combination,
                     vectors_of)
from qvint.census import enumerate_census, image_set, transform_census
from qvint.domain import (VectorFq, build_explicit_domain, dot, dot_rows,
                          flat_to_rows, rows_to_flat, vector_from_flat)
from qvint.errors import ResourceCapError
from qvint.field import parse_field_spec
from qvint.simulator import run_algorithm, success_probability

FIELDS = {q: parse_field_spec(str(q)) for q in (2, 3, 4, 5, 7, 8, 9)}


@st.composite
def index_rows(draw, max_rows=8, max_n=5):
    """(params, (m, n) index rows) over one of the small fields."""
    params = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_rows))
    cells = draw(st.lists(st.integers(0, params.q - 1), min_size=m * n, max_size=m * n))
    return params, np.array(cells, dtype=np.intp).reshape(m, n)


@settings(deadline=None)
@given(index_rows())
def test_codec_round_trips_and_matches_vectors(case):
    params, rows = case
    m, n = rows.shape
    flat = rows_to_flat(rows, params.q)
    assert flat.shape == (m,)
    assert np.array_equal(flat_to_rows(flat, params.q, n), rows)
    for row, index in zip(rows.tolist(), flat.tolist()):
        # First coordinate most significant, as the state vectors are laid out.
        assert index == sum(c * params.q ** (n - 1 - i) for i, c in enumerate(row))
        vector = vector_from_flat(params, n, index)
        assert vector == VectorFq.from_index_tuple(params, row)
        assert list(vector.index_tuple()) == row
        assert rows_to_flat(vector.index_tuple(), params.q) == index


@settings(deadline=None)
@given(index_rows(), st.data())
def test_vectorised_dot_matches_object_dot(case, data):
    params, rows = case
    n = rows.shape[1]
    s = data.draw(st.lists(st.integers(0, params.q - 1), min_size=n, max_size=n))
    secret = VectorFq.from_index_tuple(params, s)
    expected = [dot(secret, VectorFq.from_index_tuple(params, row)).index()
                for row in rows.tolist()]
    assert dot_rows(params, s, rows).tolist() == expected


@settings(deadline=None)
@given(index_rows(), st.data())
def test_batched_dot_is_one_row_per_secret(case, data):
    params, rows = case
    n = rows.shape[1]
    count = data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(st.integers(0, params.q - 1),
                               min_size=count * n, max_size=count * n))
    secrets = np.array(cells, dtype=np.intp).reshape(count, n)
    table = dot_rows(params, secrets[:, None], rows)
    assert table.shape == (count, len(rows))
    for s, row in zip(secrets, table):
        assert row.tolist() == dot_rows(params, s.tolist(), rows).tolist()


@st.composite
def census_instances(draw):
    """A random explicit domain of at most 4 vectors and k <= 3, so at most
    (4 * 9)^3 = 46,656 input tuples."""
    params = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 3))
    codomain = params.q ** n
    flats = draw(st.sets(st.integers(0, codomain - 1), min_size=1, max_size=min(codomain, 4)))
    domain = build_explicit_domain(vector_from_flat(params, n, f) for f in flats)
    return domain, draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(census_instances())
def test_census_matches_a_brute_force_scan(case):
    domain, k = case
    params, n = domain.params, domain.n
    # Every sequence of (vector position, weight index) pairs, lexicographically.
    pairs = [(j, y) for j in range(domain.size) for y in range(params.q)]
    elements, vectors = params.elements(), vectors_of(domain)
    counts, good, first = {}, {}, {}
    for sequence in itertools.product(pairs, repeat=k):
        positions = [j for j, _ in sequence]
        weights = [y for _, y in sequence]
        key = linear_combination([vectors[j] for j in positions],
                                 [elements[y] for y in weights], params=params, n=n).index_tuple()
        counts[key] = counts.get(key, 0) + 1
        if len(set(positions)) == k and all(weights):
            good[key] = good.get(key, 0) + 1
        first.setdefault(key, (positions, weights))

    census = enumerate_census(domain, k)
    assert counts_of(census) == counts
    assert good_counts_of(census) == good
    transversal = census.transversal
    keys = sorted(first)
    assert transversal.keys.tolist() == [list(key) for key in keys]
    assert transversal.positions.tolist() == [first[key][0] for key in keys]
    assert transversal.weights.tolist() == [first[key][1] for key in keys]


@settings(max_examples=60, deadline=None)
@given(census_instances())
def test_transform_census_equals_the_walk(case):
    domain, k = case
    walk, transform = enumerate_census(domain, k), transform_census(domain, k)
    assert np.array_equal(transform.dense, walk.dense)
    assert np.array_equal(transform.dense_good, walk.dense_good)
    for name in ("keys", "positions", "weights"):
        assert np.array_equal(getattr(transform.transversal, name),
                              getattr(walk.transversal, name))


@st.composite
def small_instances(draw):
    """A random explicit domain, a query count and a secret, all small."""
    params = FIELDS[draw(st.sampled_from((2, 3, 4, 5)))]
    n = draw(st.integers(1, 3))
    codomain = params.q ** n
    flats = draw(st.sets(st.integers(0, codomain - 1), min_size=1, max_size=min(codomain, 6)))
    domain = build_explicit_domain(vector_from_flat(params, n, f) for f in flats)
    k = draw(st.integers(1, 2))
    if (domain.size * params.q) ** k > 2000:
        k = 1
    secret = vector_from_flat(params, n, draw(st.integers(0, codomain - 1)))
    return domain, k, secret


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_run_algorithm_is_the_fourier_state_restricted_to_the_image(case):
    domain, k, secret = case
    params, n = domain.params, domain.n
    image = image_set(enumerate_census(domain, k))
    state = run_algorithm(domain, k, enumerate_census(domain, k).transversal, secret)

    full = fourier_state(params, n, secret).amplitudes
    expected = np.zeros_like(full)
    on_image = rows_to_flat(image.keys, params.q)
    expected[on_image] = full[on_image] * math.sqrt(params.q ** n / image.size)
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_success_probability_matches_the_fourier_reference(case):
    domain, k, secret = case
    state = run_algorithm(domain, k, enumerate_census(domain, k).transversal, secret)
    reference = abs(inner(fourier_state(domain.params, domain.n, secret), state)) ** 2
    assert abs(success_probability(state, secret) - reference) <= 1e-12


@pytest.mark.parametrize("q, n", ((2, 64), (3, 40), (2 ** 10, 7)))
def test_codec_refuses_to_wrap(q, n):
    with pytest.raises(ResourceCapError):
        rows_to_flat(np.zeros((1, n), dtype=np.intp), q)
    with pytest.raises(ResourceCapError):
        flat_to_rows(np.zeros(1, dtype=np.int64), q, n)


def test_codec_accepts_the_largest_int64_space():
    # 2^62 points: every flat index still fits in int64.
    top = np.ones((1, 62), dtype=np.intp)
    assert rows_to_flat(top, 2).tolist() == [2 ** 62 - 1]
    assert np.array_equal(flat_to_rows([2 ** 62 - 1], 2, 62), top)
