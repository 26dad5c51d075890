"""Domain layer: builders, canonical order, zero-touching, independence, files."""

import copy
from dataclasses import FrozenInstanceError
import itertools
import math
import pickle
import random
import re
import time

import numpy as np
import pytest

from oracles import field_element_rank, independence_walk, linear_combination, vectors_of
from qvint import domain as domain_mod
from qvint import errors
from qvint.domain import (Domain, VectorFq, build_explicit_domain,
                          build_monomial_domain, build_vandermonde_domain,
                          dot, monomial_exponents, parse_vector,
                          read_domain_file, validate_independence,
                          write_domain_file)
from qvint.errors import ParameterError, ResourceCapError
from qvint.field import FieldParams, parse_field_spec

F3 = FieldParams(3)
F4 = FieldParams(2, 2)
F5 = FieldParams(5)
F9 = FieldParams(3, 2)


def mod_p_rank(rows, p):
    """Independent rank over GF(p) by integer row reduction."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i][col] % p), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = (rows[i][col] * inv) % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_domain(params, rng):
    """A random explicit domain, |V| > n, |V| = n, |V| < n or wide n with
    equal odds; in half the cases one vector is replaced by a combination of
    up to n - 1 others, the zero vector included."""
    n, shape = rng.randint(2, 4), rng.randrange(4)
    size = (rng.randint(n + 1, n + 4), n, rng.randint(1, n - 1), rng.randint(1, 4))[shape]
    n *= 20 if shape == 3 else 1
    q = params.q
    vectors = [VectorFq.from_index_tuple(params, [rng.randrange(q) for _ in range(n)])
               for _ in range(size)]
    if size > 1 and rng.random() < 0.5:
        target = rng.randrange(size)
        others = rng.sample([i for i in range(size) if i != target],
                            rng.randint(1, min(size - 1, n - 1)))
        vectors[target] = linear_combination([vectors[i] for i in others],
                                             [params.from_index(rng.randrange(q)) for _ in others])
    return build_explicit_domain(vectors)


class TestVectors:
    def test_construction_and_indexing(self):
        v = VectorFq((F3.element(1), F3.element(2)))
        assert v.n == 2
        assert v.index_tuple() == (1, 2)
        assert VectorFq.from_index_tuple(F3, (1, 2)) == v

    def test_vectors_are_read_only(self):
        v = VectorFq.from_index_tuple(F3, (1, 2))
        members = {v}
        with pytest.raises(AttributeError):
            v.entries = (F3.one(), F3.one())
        with pytest.raises(AttributeError):
            del v.entries
        assert v.index_tuple() == (1, 2) and v in members
        assert pickle.loads(pickle.dumps(v)) == v == copy.copy(v)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ParameterError):
            VectorFq((F3.element(1), F5.element(1)))
        with pytest.raises(ParameterError):
            VectorFq(())

    def test_dot(self):
        a = VectorFq.from_index_tuple(F5, (1, 3))
        b = VectorFq.from_index_tuple(F5, (2, 4))
        assert dot(a, b).index() == (1 * 2 + 3 * 4) % 5

    def test_dot_needs_matching_shapes(self):
        a = VectorFq.from_index_tuple(F5, (1, 3))
        c = VectorFq.from_index_tuple(F5, (1, 3, 0))
        with pytest.raises(ParameterError):
            dot(a, c)


class TestBuilders:
    def test_vandermonde_rows(self):
        dom = build_vandermonde_domain(F3, 1)
        assert [v.index_tuple() for v in vectors_of(dom)] == [(1, 0), (1, 1), (1, 2)]
        assert dom.n == 2 and dom.size == 3

    def test_vandermonde_shape_per_field(self):
        for q, d in ((3, 2), (5, 3), (7, 4)):
            params = parse_field_spec(str(q))
            dom = build_vandermonde_domain(params, d)
            assert dom.size == q
            assert dom.n == d + 1
            assert dom.zero_touching_count() == 1

    def test_vandermonde_extension_field(self):
        dom = build_vandermonde_domain(F4, 1)
        assert [v.index_tuple() for v in vectors_of(dom)] == [
            (1, 0), (1, 1), (1, 2), (1, 3)
        ]

    def test_vandermonde_bad_degree(self):
        with pytest.raises(ParameterError):
            build_vandermonde_domain(F3, 0)

    @pytest.mark.parametrize("degree", (True, 2.0))
    def test_vandermonde_degree_must_be_a_plain_int(self, degree):
        # A bool is an int to isinstance, but not a degree.
        with pytest.raises(ParameterError, match="Vandermonde degree must be an integer >= 1"):
            build_vandermonde_domain(parse_field_spec("5"), degree)

    @pytest.mark.parametrize("variables,degree", ((2.0, 1), ("2", 1), (2, True), (0, 1)))
    def test_monomial_arguments_must_be_plain_ints(self, variables, degree):
        with pytest.raises(ParameterError, match="must be an integer >= 1"):
            build_monomial_domain(F3, variables, degree)
        with pytest.raises(ParameterError, match="must be an integer >= 1"):
            monomial_exponents(variables, degree)

    def test_monomial_exponent_order(self):
        assert monomial_exponents(2, 2) == (
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
        )

    @pytest.mark.parametrize("variables", range(1, 7))
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_monomial_exponents_are_the_filtered_product(self, variables, degree):
        product = [e for e in itertools.product(range(degree + 1), repeat=variables)
                   if sum(e) <= degree]
        assert monomial_exponents(variables, degree) == tuple(
            sorted(product, key=lambda e: (sum(e), e)))

    def test_monomial_exponents_grow_only_the_monomials(self):
        # The product over (d+1)^m tuples would take 4^20 ~ 1.1e12 steps.
        started = time.perf_counter()
        exps = monomial_exponents(20, 3)
        assert time.perf_counter() - started < 1.0
        assert len(exps) == len(set(exps)) == math.comb(23, 3) == 1771
        assert all(len(e) == 20 and sum(e) <= 3 for e in exps)
        assert list(exps) == sorted(exps, key=lambda e: (sum(e), e))

    def test_monomial_domain_shape(self):
        dom = build_monomial_domain(F3, 2, 2)
        assert dom.size == 9
        assert dom.n == 6
        # every point with a zero coordinate gives a row touching zero
        assert dom.zero_touching_count() == 3 ** 2 - 2 ** 2

    def test_monomial_zero_touching_closed_form(self):
        for q, m, d in ((3, 2, 2), (2, 3, 2), (5, 2, 1)):
            params = parse_field_spec(str(q))
            dom = build_monomial_domain(params, m, d)
            assert dom.size == q ** m
            assert dom.zero_touching_count() == q ** m - (q - 1) ** m

    def test_monomial_constant_coordinate_is_one(self):
        dom = build_monomial_domain(F3, 2, 2)
        for v in vectors_of(dom):
            assert v.entries[0] == F3.one()

    def test_explicit_domain_dedupes_and_sorts(self):
        a = VectorFq.from_index_tuple(F3, (2, 1))
        b = VectorFq.from_index_tuple(F3, (0, 1))
        dom = build_explicit_domain([a, b, a])
        assert [v.index_tuple() for v in vectors_of(dom)] == [(0, 1), (2, 1)]
        assert dom.indices.tolist() == [[0, 1], [2, 1]]
        with pytest.raises(ValueError):
            dom.indices[0, 0] = 1

    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    def test_rows_match_field_element_arithmetic(self, q):
        params = parse_field_spec(str(q))
        # Degree 2q + 1 wraps the powers past a^(q-1) twice.
        for d in (1, 2, 3, 2 * q + 1):
            rows = sorted(tuple((x ** e).index() for e in range(d + 1))
                          for x in params.elements())
            assert build_vandermonde_domain(params, d).indices.tolist() == [
                list(row) for row in rows]
        for m, d in ((1, 2), (2, 2), (2, 3)):
            exps = monomial_exponents(m, d)
            rows = set()
            for point in itertools.product(params.elements(), repeat=m):
                row = []
                for e in exps:
                    acc = params.one()
                    for a, power in zip(point, e):
                        acc = acc * a ** power  # a ** 0 is one, also for a = 0
                    row.append(acc.index())
                rows.add(tuple(row))
            assert build_monomial_domain(params, m, d).indices.tolist() == [
                list(row) for row in sorted(rows)]

    # GF(2)^70 and GF(3)^40 have more points than an int64 flat index can number;
    # the last six sit on either side of a key's 62-bit packing: 62 columns of
    # GF(2), 12 of GF(32) and 6 of GF(1021) fill one key.
    @pytest.mark.parametrize("q,n", ((2, 1), (3, 4), (5, 3), (1021, 2), (2, 70), (3, 40),
                                     (2, 62), (2, 63), (2, 125), (32, 13), (1021, 6),
                                     (1021, 7)))
    def test_dedup_matches_numpy_unique(self, q, n):
        rng = np.random.default_rng(q * 10 + n)
        rows = rng.integers(0, q, size=(60, n))
        rows = np.concatenate([rows, rows[:25], rows[:5]])
        rng.shuffle(rows)
        dom = Domain(parse_field_spec(str(q)), rows)
        assert np.array_equal(dom.indices, np.unique(rows, axis=0))

    def test_domain_from_index_rows(self):
        dom = Domain(F4, [[3, 1], [0, 2], [3, 1]], label="rows")
        assert dom.indices.tolist() == [[0, 2], [3, 1]]
        assert vectors_of(dom) == (VectorFq.from_index_tuple(F4, (0, 2)),
                                   VectorFq.from_index_tuple(F4, (3, 1)))
        for bad in ([[0, 4]], [[-1, 0]], [], [[]]):
            with pytest.raises(ParameterError):
                Domain(F4, bad)

    def test_copies_are_rebuilt_read_only(self):
        dom = build_monomial_domain(F4, 2, 1)
        for back in (pickle.loads(pickle.dumps(dom)), copy.deepcopy(dom)):
            assert back.same_as(dom) and back.label == dom.label
            with pytest.raises(ValueError):
                back.indices[0, 0] = 1
        # A row past GF(4), which the constructor refuses.
        object.__setattr__(dom, "indices", np.array([[0, 4]]))
        with pytest.raises(ParameterError, match=r"indices must lie in \[0, 4\)"):
            pickle.loads(pickle.dumps(dom))

    def test_attributes_are_read_only(self):
        dom = build_vandermonde_domain(F5, 1)
        assert dom.independence().status == "verified"
        dependent = np.array([[1, 0], [2, 0], [3, 0]])
        for name in ("params", "n", "indices", "label", "vectors", "_independence"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(dom, name, dependent)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(dom, name)
        assert dom.size == 5 and dom.independence().status == "verified"

    def test_mixed_length_rejected(self):
        a = VectorFq.from_index_tuple(F3, (2, 1))
        c = VectorFq.from_index_tuple(F3, (2, 1, 0))
        with pytest.raises(ParameterError):
            build_explicit_domain([a, c])

    @pytest.mark.parametrize("vectors,wanted", (
        (5, "domain vectors must be a sequence, got 5"),
        ([5], "domain vectors must be VectorFq of one field and length, got 5"),
        ([VectorFq.from_index_tuple(F3, (2, 1)), (2, 1)],
         r"domain vectors must be VectorFq of one field and length, got \(2, 1\)"),
    ), ids=("not-iterable", "not-vectors", "second-not-a-vector"))
    def test_explicit_domain_of_a_wrong_kind_is_a_parameter_error(self, vectors, wanted):
        with pytest.raises(ParameterError, match=wanted):
            build_explicit_domain(vectors)


@pytest.mark.parametrize("dom", (
    build_vandermonde_domain(F5, 2), build_vandermonde_domain(F9, 2),
    build_monomial_domain(F3, 2, 1), build_monomial_domain(F4, 1, 2),
    Domain(F5, [[1, 2], [0, 3], [4, 4]]),
    build_explicit_domain([VectorFq.from_index_tuple(F9, (1, 4, 8)),
                           VectorFq.from_index_tuple(F9, (0, 2, 3))]),
), ids=repr)
def test_lines_are_every_scaled_vector_in_walk_order(dom):
    params, q = dom.params, dom.params.q
    lines = dom.lines
    assert np.array_equal(
        lines, params.mul_rows()[:, dom.indices].transpose(1, 0, 2).reshape(-1, dom.n))
    # Row j*q + y is y * v_j, by element arithmetic.
    assert lines.tolist() == [[(y * e).index() for e in v.entries]
                              for v in vectors_of(dom) for y in params.elements()]
    with pytest.raises(ValueError):
        lines[0, 0] = 1


class TestIndependence:
    def test_vandermonde_verified(self):
        for q, d in ((3, 1), (5, 3), (7, 3)):
            params = parse_field_spec(str(q))
            dom = build_vandermonde_domain(params, d)
            report = dom.independence()
            assert report.status == "verified"
            assert report.witness is None
            assert report.subset_size == min(dom.n, dom.size)

    def test_monomial_refuted_with_frozen_witness(self):
        dom = build_monomial_domain(F3, 2, 2)
        report = dom.independence()
        assert report.status == "refuted"
        assert report.witness == (
            (1, 0, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 1),
            (1, 0, 2, 0, 0, 1),
            (1, 1, 0, 1, 0, 0),
            (1, 1, 1, 1, 1, 1),
            (1, 1, 2, 1, 2, 1),
        )
        # cross-check the witness really is rank deficient, independently
        assert mod_p_rank(report.witness, 3) < 6

    def test_rank_matches_independent_reduction(self):
        dom = build_vandermonde_domain(F5, 3)
        subsets = list(itertools.combinations(dom.indices.tolist(), 4))
        ranks = domain_mod._ranks(np.array(subsets), F5)
        for subset, rank in zip(subsets, ranks.tolist()):
            expected = mod_p_rank(subset, 5)
            assert expected == 4  # Vandermonde minors are invertible
            assert rank == expected

    @pytest.mark.parametrize("dom", (
        build_monomial_domain(F4, 2, 1),
        build_vandermonde_domain(F9, 2),
        build_monomial_domain(F9, 2, 1),
    ), ids=("gf4-monomial", "gf9-vandermonde", "gf9-monomial"))
    def test_rank_matches_field_element_reduction(self, dom):
        ranks = set()
        for size in (2, 3, 4):
            subsets = list(itertools.combinations(vectors_of(dom)[:16], size))
            stack = np.array([[v.index_tuple() for v in subset] for subset in subsets])
            for subset, rank in zip(subsets, domain_mod._ranks(stack, dom.params).tolist()):
                assert rank == field_element_rank(subset)
                ranks.add((size, rank))
        if dom.label.startswith("monomial"):
            assert (3, 2) in ranks  # three collinear points give a deficient subset

    # 540 seeded random domains, half of them ranked a few subsets per block.
    @pytest.mark.parametrize("block", (None, 40))
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25))
    def test_matches_the_subset_walk(self, monkeypatch, q, block):
        if block:
            monkeypatch.setattr(errors, "BLOCK_ENTRIES", block)
        params, rng = parse_field_spec(str(q)), random.Random(q * 2 + bool(block))
        statuses = set()
        for _ in range(30):
            dom = random_domain(params, rng)
            report = validate_independence(dom)
            status, size, checked, witness = independence_walk(dom)
            # The walk's witness is VectorFq; the report's is their index tuples.
            if witness is not None:
                witness = tuple(v.index_tuple() for v in witness)
            assert (report.status, report.subset_size, report.subsets_checked,
                    report.witness) == (status, size, checked, witness)
            statuses.add(status)
        assert statuses == {"verified", "refuted"}

    def test_report_is_cached(self):
        dom = build_vandermonde_domain(F3, 1)
        assert dom.independence() is dom.independence()

    def test_subset_count_trips_the_step_cap(self, monkeypatch):
        # C(7, 3) = 35 subsets of three vectors of length 3, 27 steps each:
        # 945 in all, over a cap of 500.  Blocks of three subsets after the
        # first one rank 16 subsets (432 steps); the next block would pass it.
        monkeypatch.setattr(domain_mod, "MAX_ELIMINATION_STEPS", 500)
        monkeypatch.setattr(errors, "BLOCK_ENTRIES", 27)
        ranked, ranks = [], domain_mod._ranks

        def counted(stack, params):
            ranked.append(len(stack))
            return ranks(stack, params)

        monkeypatch.setattr(domain_mod, "_ranks", counted)
        dom = build_vandermonde_domain(FieldParams(7), 2)
        with pytest.raises(ResourceCapError,
                           match="independence check needs 945 elimination steps, cap is 500"):
            validate_independence(dom)
        assert sum(ranked) == 16

    def test_early_refutation_is_found_past_the_step_cap(self):
        # C(49, 6) = 13983816 subsets of six vectors of length 6, 3020504256
        # steps in all, but the first six points, second coordinate 0, span 3.
        report = validate_independence(build_monomial_domain(FieldParams(7), 2, 2))
        assert (report.status, report.subset_size, report.subsets_checked) == ("refuted", 6, 1)
        assert all(type(row) is tuple and row[1] == 0 for row in report.witness)
        assert mod_p_rank(report.witness, 7) == 3

    def test_many_small_subsets_are_checked_in_full(self):
        # C(1021, 2) = 520710 pairs: 520710 * 2^2 * 2 steps, under the step cap.
        report = validate_independence(build_vandermonde_domain(FieldParams(1021), 1))
        assert report.status == "verified"
        assert (report.subset_size, report.subsets_checked) == (2, 520710)

    def test_elimination_cap(self):
        # One subset of all 32 vectors, but 32^2 * 100001 elimination steps.
        dom = build_vandermonde_domain(parse_field_spec("32"), 100_000)
        assert dom.size == 32
        with pytest.raises(ResourceCapError,
                           match="independence check needs 102401024 elimination steps"):
            validate_independence(dom)
        assert domain_mod.MAX_ELIMINATION_STEPS == 10 ** 8

    def test_wide_domain_below_elimination_cap(self):
        # 3 vectors of 100001 coordinates: 9 * 100001 steps, checked in full.
        dom = build_vandermonde_domain(F3, 100_000)
        report = validate_independence(dom)
        assert report.status == "verified" and report.subsets_checked == 1

    def test_small_domain_uses_size_not_n(self):
        # fewer vectors than coordinates: subsets of size |V| are checked
        vs = [VectorFq.from_index_tuple(F3, t) for t in ((1, 0, 0), (0, 1, 0))]
        report = validate_independence(build_explicit_domain(vs))
        assert report.status == "verified"
        assert report.subset_size == 2


class TestDomainFiles:
    def test_roundtrip_prime(self, tmp_path):
        dom = build_vandermonde_domain(F5, 2)
        path = tmp_path / "d.txt"
        write_domain_file(dom, path)
        back = read_domain_file(path)
        assert back.params == dom.params
        assert vectors_of(back) == vectors_of(dom)

    def test_roundtrip_extension_keeps_modulus(self, tmp_path):
        dom = build_vandermonde_domain(F4, 2)
        path = tmp_path / "d.txt"
        write_domain_file(dom, path)
        text = path.read_text()
        assert text.splitlines()[0] == "q=4 n=3 modulus=1,1,1"
        back = read_domain_file(path)
        assert back.params.modulus == (1, 1, 1)
        assert vectors_of(back) == vectors_of(dom)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("n=2\n1,0\n")
        with pytest.raises(ParameterError):
            read_domain_file(path)

    # The header's q and modulus are the field spec q:modulus, so they fail
    # with parse_field_spec's errors.
    @pytest.mark.parametrize("header,spec", (
        ("q=9 n=2 modulus=1,x,1", "9:1,x,1"),  # bad modulus
        ("q=9 n=2 modulus=1,0,0,1", "9:1,0,0,1"),  # wrong degree
        ("q=9 n=2 modulus=2,0,1", "9:2,0,1"),  # x^2 + 2 = (x + 1)(x + 2)
        ("q=6 n=2", "6"),  # not a prime power
        ("q=x n=2", "x"),  # not an integer
    ))
    def test_header_field_is_a_field_spec(self, tmp_path, header, spec):
        path = tmp_path / "d.txt"
        path.write_text(header + "\n1,0\n")
        with pytest.raises(ParameterError) as expected:
            parse_field_spec(spec)
        with pytest.raises(ParameterError, match=re.escape(str(expected.value))):
            read_domain_file(path)

    @pytest.mark.parametrize("header,match", (
        ("q=3 n=2 p=3", "unknown header token 'p=3'"),
        ("q=3", "needs q= and an integer n="),
        ("n=2", "needs q= and an integer n="),
        ("q=3 n=x", "needs q= and an integer n="),
        ("q=3 n=1.5", "needs q= and an integer n="),
    ))
    def test_header_errors(self, tmp_path, header, match):
        path = tmp_path / "d.txt"
        path.write_text(header + "\n1,0\n")
        with pytest.raises(ParameterError, match=match):
            read_domain_file(path)

    @pytest.mark.parametrize("params", (F5, F9, FieldParams(3, 2, modulus=(2, 1, 1))),
                             ids=("prime", "default-modulus", "other-modulus"))
    def test_roundtrip_with_and_without_modulus(self, tmp_path, params):
        dom = build_vandermonde_domain(params, 2)
        path = tmp_path / "d.txt"
        write_domain_file(dom, path)
        assert ("modulus=" in path.read_text()) == (params.r > 1)
        back = read_domain_file(path)
        assert back.params == params and back.same_as(dom)
        # Without modulus= an extension field takes the smallest irreducible.
        path.write_text(re.sub(r" modulus=\S+", "", path.read_text()))
        assert read_domain_file(path).params == parse_field_spec(str(params.q))

    # Every monic x - a leaves the same residues mod p, so a degree-one
    # modulus, however it is given, makes GF(p) itself.
    @pytest.mark.parametrize("source", ("spec", "params", "header"))
    def test_a_degree_one_modulus_is_the_prime_field(self, tmp_path, source):
        gf7 = FieldParams(7)
        path = tmp_path / "d.txt"
        path.write_text("q=7 n=2 modulus=1,1\n1,0\n0,1\n")
        params = {"spec": lambda: parse_field_spec("7:1,1"),
                  "params": lambda: FieldParams(7, 1, modulus=(1, 1)),
                  "header": lambda: read_domain_file(path).params}[source]()
        assert params == gf7 and hash(params) == hash(gf7)
        assert params.element(3) + gf7.element(5) == gf7.element(1)
        assert gf7.element(3) * params.element(5) == params.element(1)
        dom = build_vandermonde_domain(params, 2)
        write_domain_file(dom, path)
        back = read_domain_file(path)
        assert back.same_as(dom) and back.same_as(build_vandermonde_domain(gf7, 2))

    def test_rejects_wrong_length_vector(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("q=3 n=2\n1,0,2\n")
        with pytest.raises(ParameterError):
            read_domain_file(path)

    def test_repeated_tokens_and_first_bad_token(self, tmp_path):
        # Equal tokens decode alike however they are spelled out, and a bad
        # token is reported before the line's length is checked.
        path = tmp_path / "d.txt"
        path.write_text("q=9 n=3 modulus=1,0,1\n1:2,1:2, 1:2\n0:1,1,2:0\n2:1,1,0\n")
        assert read_domain_file(path).indices.tolist() == [[3, 1, 2], [5, 1, 0], [7, 7, 7]]
        path.write_text("q=3 n=2\n1,0\n1,x,y,1\n")
        with pytest.raises(ParameterError, match="bad element token 'x'"):
            read_domain_file(path)

    def test_vector_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(domain_mod, "MAX_DOMAIN_VECTORS", 5)
        path = tmp_path / "d.txt"
        path.write_text("q=3 n=1\n" + "\n".join(str(i % 3) for i in range(10)) + "\n")
        with pytest.raises(ResourceCapError):
            read_domain_file(path)

    @pytest.mark.parametrize("build", (
        lambda path: build_vandermonde_domain(F3, 2),  # 3 x 3 entries
        lambda path: build_monomial_domain(F3, 1, 2),
        lambda path: build_explicit_domain(vectors_of(build_vandermonde_domain(F3, 2))),
        lambda path: read_domain_file(path),
    ), ids=("vandermonde", "monomial", "explicit", "file"))
    def test_entries_cap(self, tmp_path, monkeypatch, build):
        path = tmp_path / "d.txt"
        path.write_text("q=3 n=3\n1,0,0\n1,1,1\n1,2,1\n")
        monkeypatch.setattr(domain_mod, "MAX_DOMAIN_ENTRIES", 8)
        with pytest.raises(ResourceCapError, match="domain needs 9 entries, cap is 8"):
            build(path)
        monkeypatch.setattr(domain_mod, "MAX_DOMAIN_ENTRIES", 9)
        assert build(path).size == 3

    def test_parse_vector_tokens(self):
        v = parse_vector(F4, "1:0, 0:1")
        assert v.index_tuple() == (1, 2)
        with pytest.raises(ParameterError):
            parse_vector(F4, "1:0:0,0")
        with pytest.raises(ParameterError):
            parse_vector(F3, "x,1")

    def test_integer_token_beyond_the_prime_subfield_is_refused(self):
        # On GF(4) a bare "2" could mean the element with index 2 (x) or the
        # constant 2 = 0; it is refused, naming the token and the colon form.
        with pytest.raises(ParameterError, match=r"'2'.*0:1"):
            parse_vector(F4, "2")
        assert parse_vector(F4, "0,1").index_tuple() == (0, 1)
        assert parse_vector(F3, "4,5").index_tuple() == (1, 2)


class TestStats:
    def test_stats_snapshot(self):
        dom = build_vandermonde_domain(F5, 3)
        stats = dom.stats()
        assert stats.field_order == 5
        assert stats.length == 4
        assert stats.size == 5
        assert stats.zero_touching == 1
        assert stats.label == "vandermonde(q=5, d=3)"
