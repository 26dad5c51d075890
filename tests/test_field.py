"""Field layer: exact arithmetic, trace, character, Fourier kernels."""

import cmath
import copy
import itertools
import math
import operator
import pickle

import numpy as np
import pytest
import sympy

from qvint.errors import ParameterError, ResourceCapError
from qvint import census as census_mod
from qvint.domain import VectorFq
from qvint.field import (FieldElement, FieldParams, _is_prime, character_orthogonality_check,
                         parse_field_spec, smallest_irreducible)

SMALL_FIELDS = (2, 3, 4, 5, 7, 8, 9)


def params_for(q):
    return parse_field_spec(str(q))


def sympy_field_mul(coeffs_a, coeffs_b, modulus, p):
    """Independent product in the polynomial basis via sympy."""
    x = sympy.Symbol("x")
    fa = sympy.Poly(list(reversed(coeffs_a)), x, modulus=p)
    fb = sympy.Poly(list(reversed(coeffs_b)), x, modulus=p)
    fm = sympy.Poly(list(reversed(modulus)), x, modulus=p)
    rem = (fa * fb).rem(fm)
    out = [int(c) % p for c in reversed(rem.all_coeffs())]
    out += [0] * (len(modulus) - 1 - len(out))
    return tuple(out)


class TestPrimality:
    def test_agrees_with_sympy_below_2_to_16(self):
        assert [n for n in range(1 << 16) if _is_prime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize("p", (2, 3, 7, 31, 1021))
    def test_agrees_with_sympy_on_the_transform_prime_candidates(self, p):
        # The candidates the census walks, = 1 (mod p) and largest first,
        # for as far as MAX_TRANSFORM_PRIMES primes reach.
        ceiling = census_mod._PRIME_CEILING
        candidate, found = ceiling - 1 - (ceiling - 2) % p, 0
        while found < census_mod.MAX_TRANSFORM_PRIMES:
            assert _is_prime(candidate) == sympy.isprime(candidate), candidate
            found += _is_prime(candidate)
            candidate -= p

    def test_strong_pseudoprimes_and_the_64_bit_edge(self):
        # Strong pseudoprimes to every base up to 7, 13 and 23, Carmichael
        # numbers, and the largest primes and composites below 2^64.
        hard = (3215031751, 3474749660383, 3825123056546413051, 561, 41041, 825265,
                (1 << 61) - 1, (1 << 64) - 59, (1 << 64) - 1, (1 << 64) - 3)
        assert [_is_prime(n) for n in hard] == [sympy.isprime(n) for n in hard]
        assert _is_prime((1 << 61) - 1) and _is_prime((1 << 64) - 59)


class TestConstruction:
    def test_prime_field(self):
        f = FieldParams(7)
        assert (f.p, f.r, f.q) == (7, 1, 7)
        assert f.modulus == (0, 1)

    def test_default_moduli_are_smallest_irreducible(self):
        assert FieldParams(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
        assert FieldParams(2, 3).modulus == (1, 0, 1, 1)    # x^3 + x^2 + 1
        assert FieldParams(3, 2).modulus == (1, 0, 1)       # x^2 + 1

    def test_default_moduli_match_sympy_irreducibility(self):
        x = sympy.Symbol("x")
        for p, r in ((2, 2), (2, 3), (3, 2), (5, 2)):
            modulus = smallest_irreducible(p, r)
            poly = sympy.Poly(list(reversed(modulus)), x, modulus=p)
            assert poly.is_irreducible

    @pytest.mark.parametrize("coeffs", ((7,), (-1,), (1, 0), [1], (True,), (np.int64(1),), (1.0,)),
                             ids=repr)
    def test_element_coefficients_must_be_r_plain_ints_below_p(self, coeffs):
        wanted = r"GF\(3\) coefficients must be a tuple of r=1 integers in \[0, 3\)"
        with pytest.raises(ParameterError, match=wanted):
            FieldElement(FieldParams(3), coeffs)
        assert FieldElement(FieldParams(3), (1,)) == FieldParams(3).one()

    # The types are checked before any attribute is read, so a wrong kind of
    # argument is a ParameterError, not an AttributeError.
    @pytest.mark.parametrize("build,wanted", (
        (lambda: VectorFq((1, 2)), "all coordinates must come from the same field"),
        (lambda: FieldElement(3, (1,)), "params must be a FieldParams, got 3"),
        (lambda: VectorFq(5), "vector coordinates must be a sequence, got 5"),
        (lambda: FieldParams(7, 1, modulus=5), "modulus must be a sequence, got 5"),
        (lambda: FieldParams(7, 1, modulus=("a", "b")),
         r"a modulus of degree 1 is 2 integer coefficients, got \('a', 'b'\)"),
    ), ids=("VectorFq", "FieldElement", "VectorFq-not-iterable", "modulus-not-iterable",
            "modulus-text"))
    def test_a_wrong_kind_of_argument_is_a_parameter_error(self, build, wanted):
        with pytest.raises(ParameterError, match=wanted):
            build()

    @pytest.mark.parametrize("modulus", ((1.9, 0, 1), ("1", "0", "1"), (True, 0, 1),
                                         (1, 0, np.int64(1))), ids=repr)
    def test_modulus_coefficients_must_be_plain_ints(self, modulus):
        # As for FieldElement: nothing is coerced to an int, so 1.9 is not 1.
        with pytest.raises(ParameterError, match="a modulus of degree 2 is 3 integer coeff"):
            FieldParams(3, 2, modulus=modulus)

    def test_plain_int_modulus_coefficients_are_reduced_mod_p(self):
        assert FieldParams(3, 2, modulus=[4, -3, 1]) == FieldParams(3, 2, modulus=(1, 0, 1))

    def test_explicit_modulus_validation(self):
        FieldParams(3, 2, modulus=(1, 0, 1))
        with pytest.raises(ParameterError):
            FieldParams(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2)
        with pytest.raises(ParameterError):
            FieldParams(3, 2, modulus=(1, 0, 2))  # not monic
        with pytest.raises(ParameterError):
            FieldParams(3, 2, modulus=(1, 1))     # wrong degree

    def test_non_prime_characteristic_rejected(self):
        for bad in (0, 1, 4, 6, 9):
            with pytest.raises(ParameterError):
                FieldParams(bad)

    @pytest.mark.parametrize("r", (0, True, 2.0))
    def test_extension_degree_must_be_a_plain_int(self, r):
        with pytest.raises(ParameterError, match="extension degree must be an integer >= 1"):
            FieldParams(5, r)

    def test_order_cap(self):
        with pytest.raises(ResourceCapError):
            FieldParams(2, 20)  # 2^20 elements, over DEFAULT_MAX_Q

    def test_parse_field_spec(self):
        assert parse_field_spec("9").q == 9
        assert parse_field_spec("4:1,1,1").modulus == (1, 1, 1)
        for bad in ("6", "12", "1", "abc"):
            with pytest.raises(ParameterError):
                parse_field_spec(bad)

    def test_table_cap(self):
        f = FieldParams(2081)  # prime above the dense-table cap
        with pytest.raises(ResourceCapError):
            f.add_rows()

    @pytest.mark.parametrize("attr", ("p", "r", "q", "modulus"))
    def test_defining_attributes_are_read_only(self, attr):
        f = FieldParams(2, 2)
        before = (getattr(f, attr), hash(f))
        with pytest.raises(AttributeError):
            setattr(f, attr, (0, 0, 1) if attr == "modulus" else 3)
        with pytest.raises(AttributeError):
            delattr(f, attr)
        assert (getattr(f, attr), hash(f)) == before
        assert f.mul_rows()[2, 2] == 3  # lazy caches still fill: w * w = w + 1

    @pytest.mark.parametrize("attr", ("params", "coeffs"))
    def test_element_attributes_are_read_only(self, attr):
        f = FieldParams(2, 2)
        w = f.from_index(2)
        members = {w}
        with pytest.raises(AttributeError):
            setattr(w, attr, FieldParams(3) if attr == "params" else (1, 1))
        with pytest.raises(AttributeError):
            delattr(w, attr)
        assert w.params is f and w.coeffs == (0, 1) and w in members
        assert pickle.loads(pickle.dumps(w)) == w == copy.copy(w)

    def test_tables_are_read_only_arrays(self):
        f = FieldParams(3, 2)
        tables = (f.add_rows(), f.mul_rows(), f.character_values(), f.character_table())
        for table in tables:
            assert isinstance(table, np.ndarray)
            with pytest.raises(ValueError):
                table[0] = 0
        assert f.add_rows().dtype == f.mul_rows().dtype == np.intp
        assert f.character_values().dtype == np.complex128

    def test_copies_rebuild_read_only_tables(self):
        fresh = len(pickle.dumps(FieldParams(3, 2)))
        f = FieldParams(3, 2)
        f.add_rows(), f.mul_rows(), f.character_table()
        data = pickle.dumps(f)
        assert len(data) <= fresh  # no cached table travels
        for back in (pickle.loads(data), copy.deepcopy(f)):
            assert back == f and hash(back) == hash(f)
            for table in (back.add_rows(), back.mul_rows(), back.character_table()):
                assert not table.flags.writeable
            assert np.array_equal(back.mul_rows(), f.mul_rows())


class TestArithmetic:
    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_ring_axioms_exhaustive(self, q):
        f = params_for(q)
        elems = f.elements()
        zero, one = f.zero(), f.one()
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        for a in elems:
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if not a.is_zero():
                assert a * a.inverse() == one

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_commutativity(self, q):
        f = params_for(q)
        for a, b in itertools.product(f.elements(), repeat=2):
            assert a + b == b + a
            assert a * b == b * a

    @pytest.mark.parametrize("q", (2, 4, 5, 8, 9, 25, 27))
    def test_index_arithmetic_equals_element_arithmetic(self, q):
        f = params_for(q)
        elems = f.elements()
        a, b = np.divmod(np.arange(q * q), q)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert f.add(a, b).tolist() == [(elems[i] + elems[j]).index() for i, j in pairs]
        assert f.mul(a, b).tolist() == [(elems[i] * elems[j]).index() for i, j in pairs]
        assert f.inverses()[0] == 0
        assert f.inverses()[1:].tolist() == [e.inverse().index() for e in elems[1:]]
        # Broadcast as dot_rows does: (S, 1, n) secrets against (m, n) rows.
        rng = np.random.default_rng(q)
        secrets, rows = rng.integers(0, q, size=(3, 1, 4)), rng.integers(0, q, size=(5, 4))
        for indices, element_op in ((f.add, operator.add), (f.mul, operator.mul)):
            assert indices(secrets, rows).tolist() == [
                [[element_op(elems[x], elems[y]).index() for x, y in zip(s[0], row)]
                 for row in rows.tolist()] for s in secrets.tolist()]

    def test_f4_known_values(self):
        f4 = FieldParams(2, 2)
        w = f4.from_index(2)
        assert (w * w).coeffs == (1, 1)
        assert w.inverse().coeffs == (1, 1)
        assert (w + w).is_zero()

    @pytest.mark.parametrize("q", (4, 8, 9))
    def test_extension_multiplication_against_sympy(self, q):
        f = params_for(q)
        for a, b in itertools.product(f.elements(), repeat=2):
            expected = sympy_field_mul(a.coeffs, b.coeffs, f.modulus, f.p)
            assert (a * b).coeffs == expected

    def test_division_and_powers(self):
        f = FieldParams(5)
        three, four = f.element(3), f.element(4)
        assert (three / four) * four == three
        assert three ** 0 == f.one()
        assert three ** -1 == three.inverse()
        assert three ** 4 == f.one()  # multiplicative group order
        with pytest.raises(ZeroDivisionError):
            f.zero().inverse()

    def test_mixed_field_arithmetic_rejected(self):
        with pytest.raises(ParameterError):
            FieldParams(3).element(1) + FieldParams(5).element(1)

    def test_int_coercion(self):
        f = FieldParams(7)
        assert f.element(3) + 4 == f.zero()
        assert 2 * f.element(4) == f.element(1)

    # One operand rule for + - * /: an int is the prime-subfield constant,
    # another field's element a ParameterError, anything else NotImplemented.
    @pytest.mark.parametrize("q", (5, 9))
    def test_int_operands_are_subfield_constants(self, q):
        f = params_for(q)
        one, two = f.element(1), f.element(2)
        for a in f.elements():
            assert 1 - a == one - a
            assert a - 1 == a - one
            assert 2 * a == two * a == a * 2
            assert a / 2 == a / two
            assert 3 + a == a + 3 == a + f.element(3)

    @pytest.mark.parametrize("op", ("+", "-", "*", "/"))
    def test_operand_rule_both_ways_round(self, op):
        def apply(x, y):
            return {"+": lambda: x + y, "-": lambda: x - y,
                    "*": lambda: x * y, "/": lambda: x / y}[op]()

        a, b = FieldParams(3).element(1), FieldParams(5).element(2)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ParameterError, match="mixed-field arithmetic"):
                apply(x, y)
        for x, y in ((a, "1"), ("1", a), (a, 1.0), (1.0, a)):
            with pytest.raises(TypeError):
                apply(x, y)

    @pytest.mark.parametrize("value", (1.5, True, np.int64(1), "1"))
    def test_element_and_index_take_plain_ints(self, value):
        f = FieldParams(3)
        with pytest.raises(ParameterError, match="element index must be an integer >= 0"):
            f.from_index(value)
        with pytest.raises(ParameterError, match="field constant must be an integer"):
            f.element(value)
        assert f.element(-1) == f.element(2)  # negative constants reduce mod p
        with pytest.raises(ParameterError, match="out of range"):
            f.from_index(3)

    def test_a_bool_operand_is_refused(self):
        a = FieldParams(3).element(1)
        with pytest.raises(ParameterError, match="field constant must be an integer"):
            a + True
        with pytest.raises(ParameterError, match="field constant must be an integer"):
            False * a


class TestCanonicalOrder:
    def test_index_roundtrip(self):
        for q in SMALL_FIELDS:
            f = params_for(q)
            for i, e in enumerate(f.elements()):
                assert e.index() == i
                assert f.from_index(i) == e

    def test_f4_enumeration_order(self):
        f4 = FieldParams(2, 2)
        assert [e.coeffs for e in f4.elements()] == [
            (0, 0), (1, 0), (0, 1), (1, 1)
        ]

    def test_tables_agree_with_operators(self):
        for q in (q for q in range(2, 65) if len(sympy.factorint(q)) == 1):
            f = params_for(q)
            add, mul = f.add_rows(), f.mul_rows()
            elems = f.elements()
            for a in elems:
                for b in elems:
                    assert add[a.index()][b.index()] == (a + b).index()
                    assert mul[a.index()][b.index()] == (a * b).index()
            assert f.trace_values().tolist() == [a.trace() for a in elems]


class TestTraceAndCharacter:
    def test_prime_field_trace_is_identity(self):
        f = FieldParams(7)
        for e in f.elements():
            assert e.trace() == e.coeffs[0]

    def test_f4_trace_and_character(self):
        f4 = FieldParams(2, 2)
        w = f4.from_index(2)
        assert w.trace() == 1
        assert abs(w.character() - (-1)) < 1e-12
        assert abs(f4.zero().character() - 1) < 1e-12

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_trace_is_linear_over_prime_subfield(self, q):
        f = params_for(q)
        elems = f.elements()
        for a, b in itertools.product(elems, repeat=2):
            assert (a + b).trace() == (a.trace() + b.trace()) % f.p

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_character_multiplicative_in_addition(self, q):
        f = params_for(q)
        elems = f.elements()
        for a, b in itertools.product(elems, repeat=2):
            assert abs((a + b).character() - a.character() * b.character()) < 1e-9

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_character_values_are_unit_modulus_p_th_roots(self, q):
        f = params_for(q)
        for e in f.elements():
            val = e.character()
            assert abs(abs(val) - 1) < 1e-12
            assert abs(val ** f.p - 1) < 1e-9

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_orthogonality(self, q):
        assert character_orthogonality_check(params_for(q))

    def test_character_is_nontrivial_on_extensions(self):
        # The naive reading exp(2*pi*i*Tr(z)) would make every character 1;
        # dividing by p has to leave at least one value away from 1.
        for q in (4, 8, 9):
            f = params_for(q)
            values = [e.character() for e in f.elements()]
            assert any(abs(v - 1) > 0.5 for v in values)


class TestTraceTables:
    @pytest.mark.parametrize("q", (2, 3, 4, 7, 8, 9, 25))
    def test_trace_products_are_traces_of_products(self, q):
        # The Tr(a * b) rows the simulator's phases sum: trace_values() at mul.
        f = params_for(q)
        elems = f.elements()
        indices = np.arange(q)
        products = f.trace_values()[f.mul(indices[:, None], indices)]
        assert products.shape == (q, q)
        for a, b in itertools.product(elems, repeat=2):
            assert products[a.index(), b.index()] == (a * b).trace()

    @pytest.mark.parametrize("q", (2, 3, 4, 7, 8, 9, 25))
    def test_characters_are_the_trace_characters_bit_for_bit(self, q):
        f = params_for(q)
        roots = f.trace_characters()
        assert roots.shape == (f.p,) and roots.dtype == np.complex128
        assert roots.tobytes() == np.array(
            [cmath.exp(2j * cmath.pi / f.p) ** t for t in range(f.p)]).tobytes()
        assert f.character_values().tobytes() == roots[f.trace_values()].tobytes()
        for e in f.elements():
            assert abs(f.character_values()[e.index()] - e.character()) < 1e-12

    def test_tables_are_cached_and_read_only(self):
        f = FieldParams(3, 2)
        with pytest.raises(ValueError):
            f.trace_characters()[0] = 0
        assert f.trace_characters() is f.trace_characters()

    @pytest.mark.parametrize("name", ("elements", "add_rows", "mul_rows", "negations",
                                      "inverses", "trace_values", "trace_characters",
                                      "character_values", "character_table"))
    def test_each_table_is_built_once(self, name):
        f = FieldParams(3, 2)
        table = getattr(f, name)()
        assert getattr(f, name)() is table
        assert getattr(FieldParams, name).__name__ == name
        if isinstance(table, np.ndarray):
            with pytest.raises(ValueError):
                table[0] = table[1]

    def test_trace_values_cannot_be_changed(self):
        f = FieldParams(3, 2)
        with pytest.raises(ValueError):
            f.trace_values()[1] = 0
        fresh = FieldParams(3, 2)
        assert np.array_equal(f.trace_values(), fresh.trace_values())
        assert np.array_equal(f.character_values(), fresh.character_values())
        assert character_orthogonality_check(f)

    @pytest.mark.parametrize("q", SMALL_FIELDS)
    def test_negations_match_element_arithmetic(self, q):
        f = params_for(q)
        assert f.negations().tolist() == [(-e).index() for e in f.elements()]

    def test_trace_products_are_capped_like_the_tables(self):
        # trace_values() is q long, but the products come from mul's q x q table.
        f = FieldParams(2081)
        with pytest.raises(ResourceCapError, match="field table needs 2081 rows"):
            f.trace_values()[f.mul(1, np.arange(f.q))]


class TestFourierKernel:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
    def test_fourier_matrix_is_unitary(self, q):
        f = params_for(q)
        m = f.fourier_matrix()
        assert np.max(np.abs(m @ m.conj().T - np.eye(q))) < 1e-12

    def test_fourier_matrix_is_built_per_call(self):
        # Only character_table() is cached; each kernel is a new writable array.
        f = FieldParams(5)
        first, second = f.fourier_matrix(), f.fourier_matrix()
        assert first is not second and first.flags.writeable
        assert np.array_equal(first, second)

    def test_character_table_entries(self):
        f = FieldParams(3)
        table = f.character_table()
        omega = cmath.exp(2j * cmath.pi / 3)
        for a in range(3):
            for b in range(3):
                assert abs(table[a, b] - omega ** ((a * b) % 3)) < 1e-12

    def test_fourier_matrix_row_scaling(self):
        f = FieldParams(5)
        assert np.max(np.abs(
            f.fourier_matrix() * math.sqrt(5) - f.character_table()
        )) < 1e-12
