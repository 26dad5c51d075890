"""Exact arithmetic in GF(p^r): elements, trace, additive character, Fourier kernels.

Extension fields use the polynomial basis modulo a monic irreducible of
degree r over GF(p).  Every element is a coefficient tuple (c_0, ..., c_{r-1})
with c_i in [0, p); ordering and table indexing go through the canonical
integer index sum(c_i * p**i), so GF(4) enumerates as 0, 1, w, w+1.

The additive character is e(z) = exp(2*pi*i * Tr(z) / p) with the absolute
trace Tr(z) = z + z^p + ... + z^(p^(r-1)).  Dividing by p is what makes the
character non-trivial and gives the exact orthogonality relation
sum_z e(z*(x - y)) = q * delta(x, y), which the Fourier layer depends on.

The other layers compute on canonical indices: params.add and params.mul
return the indices of a + b and a * b for index arrays that broadcast
together, and the q-length negations() and inverses() map each index to
that of -x and 1/x.  These are the package's arithmetic on index arrays;
only this module knows that sums and products are looked up in q x q
tables, built from the base-p digits of all q indices at once.
FieldElement is the public element type and the reference those tables
are tested against.
"""

__all__ = ["FieldElement", "FieldParams", "character_orthogonality_check", "parse_field_spec",
           "smallest_irreducible"]

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractError, ParameterError, check_cap, check_int

# Hard ceilings.  DEFAULT_MAX_Q bounds field construction outright;
# TABLE_MAX_Q additionally bounds the dense q x q operation tables that the
# enumeration layers rely on.
DEFAULT_MAX_Q = 1 << 16
TABLE_MAX_Q = 1024
ORTHOGONALITY_TOL = 1e-9  # per Gram entry, in character_orthogonality_check


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases, exact for every n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_mul(a: tuple, b: tuple, p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _poly_rem(a: tuple, m: tuple, p: int) -> tuple:
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    deg_m = len(m) - 1
    work = list(a)
    for i in range(len(work) - 1, deg_m - 1, -1):
        c = work[i]
        if c == 0:
            continue
        work[i] = 0
        for j in range(deg_m):
            work[i - deg_m + j] = (work[i - deg_m + j] - c * m[j]) % p
    return tuple(work[:deg_m])


def _is_irreducible(m: tuple, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    if deg == 1:
        return True
    if m[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = low + (1,)
            if any(_poly_rem(m, divisor, p)):
                continue
            return False
    return True


def smallest_irreducible(p: int, r: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree r over GF(p).

    Coefficients are compared low-degree first, so GF(4) gets x^2 + x + 1
    and GF(9) gets x^2 + 1.
    """
    if r == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=r):
        candidate = low + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise ContractError(f"no irreducible of degree {r} over GF({p})")  # pragma: no cover


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _as_array(values, dtype) -> np.ndarray:
    """np.asarray(values, dtype), a ParameterError where numpy refuses them
    (ragged rows, text where numbers belong, an int past the dtype's range)
    and, for an integer dtype, where an entry is not an integer: numpy would
    truncate a float and read a bool as 0 or 1, even among ints.  An integer
    numpy array is judged by its dtype, any other input entry by entry."""
    try:
        array = np.asarray(values)
        if (np.issubdtype(dtype, np.integer) and array.size
                and not (array.dtype.kind in "iu" and isinstance(values, np.ndarray))):
            for x in np.asarray(values, dtype=object).flat:
                if type(x) is bool or not isinstance(x, (int, np.integer)):
                    raise TypeError(f"{np.asarray(x).dtype} entries are not integers")
        return array.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"values are not an array of {np.dtype(dtype)}: {exc}") from None


def _as_tuple(values, what: str) -> tuple:
    """tuple(values), a ParameterError where values is not iterable."""
    if not hasattr(values, "__iter__"):
        raise ParameterError(f"{what} must be a sequence, got {values!r}")
    return tuple(values)


def _table(build):
    """A FieldParams table method: built on first call, then served from the
    _tables slot under its name; a numpy table is made read-only."""
    @functools.wraps(build)
    def table(self):
        name = build.__name__
        if name not in self._tables:
            value = build(self)
            self._tables[name] = _read_only(value) if isinstance(value, np.ndarray) else value
        return self._tables[name]
    return table


def _reduce_through_init(self):
    """__reduce__ of the value dataclasses: a copy or an unpickled object is
    built by the constructor from its init fields, so its checks run, its
    arrays are read-only and its caches start empty."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, slots=True)
class FieldParams:
    """Immutable description of GF(p^r), shared by every element of the field.

    p, r, q and modulus cannot be reassigned after construction, because the
    hash and every cached table depend on them.  Heavy derived data (q x q
    add/mul tables, negations, inverses, trace and character tables) is built lazily on
    first use and cached; the numpy tables are read-only.  The Fourier kernel
    is not cached: fourier_matrix() builds a new writable array on each call
    from the cached character_table(), so no second q x q complex table is
    held.
    """

    p: int
    r: int = 1
    modulus: tuple = None
    q: int = field(init=False, compare=False)
    _tables: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        p, r, modulus = self.p, self.r, self.modulus
        if not isinstance(p, int) or not _is_prime(p):
            raise ParameterError(f"characteristic must be a prime integer, got {p!r}")
        check_int("extension degree", r, 1)
        q = p ** r
        check_cap("field", q, "elements", DEFAULT_MAX_Q)
        if modulus is not None:
            modulus = _as_tuple(modulus, "modulus")
            if len(modulus) != r + 1 or not all(type(c) is int for c in modulus):
                raise ParameterError(f"a modulus of degree {r} is {r + 1} integer "
                                     f"coefficients, got {modulus!r}")
            modulus = tuple(c % p for c in modulus)
            if modulus[-1] != 1:
                raise ParameterError("modulus must be monic")
            if r > 1 and not _is_irreducible(modulus, p):
                raise ParameterError(f"modulus {modulus} is reducible over GF({p})")
        # Every monic x - a leaves the same residues mod p: one GF(p), one modulus.
        if modulus is None or r == 1:
            modulus = smallest_irreducible(p, r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "modulus", modulus)

    # Tables are rebuilt, read-only, on first use after unpickling.
    __reduce__ = _reduce_through_init

    def __repr__(self):
        if self.r == 1:
            return f"FieldParams({self.p})"
        return f"FieldParams({self.p}, {self.r}, modulus={self.modulus})"

    # -- element construction ----------------------------------------------

    def element(self, value: int) -> "FieldElement":
        """The prime-subfield constant value mod p; value must be a plain int."""
        if type(value) is not int:
            raise ParameterError(f"field constant must be an integer, got {value!r}")
        return FieldElement(self, (value % self.p,) + (0,) * (self.r - 1))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.r)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.r - 1))

    def from_index(self, index: int) -> "FieldElement":
        check_int("element index", index, 0)
        if index >= self.q:
            raise ParameterError(f"index {index} out of range for GF({self.q})")
        coeffs = []
        for _ in range(self.r):
            index, c = divmod(index, self.p)
            coeffs.append(c)
        return FieldElement(self, tuple(coeffs))

    @_table
    def elements(self) -> tuple:
        """All q elements in canonical index order."""
        return tuple(self.from_index(i) for i in range(self.q))

    # -- dense operation tables ---------------------------------------------

    def _digits(self) -> np.ndarray:
        """(q, r) base-p coefficient digits of every element, by canonical index."""
        return np.arange(self.q)[:, None] // self.p ** np.arange(self.r) % self.p

    @_table
    def add_rows(self) -> np.ndarray:
        """add_rows()[i, j] is the index of element i plus element j."""
        check_cap("field table", self.q, "rows", TABLE_MAX_Q)
        p, digits = self.p, self._digits()
        # Digit-wise addition mod p.
        return sum((digits[:, None, j] + digits[None, :, j]) % p * p ** j for j in range(self.r))

    @_table
    def mul_rows(self) -> np.ndarray:
        """mul_rows()[i, j] is the index of element i times element j."""
        check_cap("field table", self.q, "rows", TABLE_MAX_Q)
        p, r, digits = self.p, self.r, self._digits()
        # shifted[j, b] holds the digits of x^j * b: x^(j-1) * b moved up one
        # place, its top digit folded back in by x^r = -modulus[:r].
        fold = np.array([-c % p for c in self.modulus[:r]])
        shifted = [digits]
        for _ in range(r - 1):
            prev = shifted[-1]
            shifted.append((np.pad(prev[:, :-1], ((0, 0), (1, 0))) + prev[:, -1:] * fold) % p)
        shifted = np.stack(shifted)
        # a * b = sum_j a_j * (x^j * b), one product digit i at a time.
        return sum(digits @ shifted[:, :, i] % p * p ** i for i in range(r))

    # add and mul read entry (a, b) of the flattened table at a * q + b: one
    # 1-D gather is faster than indexing the 2-D table with two arrays.
    def add(self, a, b) -> np.ndarray:
        """Index of a + b for index arrays a and b, broadcast together."""
        return self.add_rows().reshape(-1)[np.asarray(a) * self.q + b]

    def mul(self, a, b) -> np.ndarray:
        """Index of a * b for index arrays a and b, broadcast together."""
        return self.mul_rows().reshape(-1)[np.asarray(a) * self.q + b]

    @_table
    def negations(self) -> np.ndarray:
        """negations()[i] is the index of minus element i: every add row is a
        permutation, whose one 0 (the zero index) sits at the negation."""
        return self.add_rows().argmin(axis=1)

    @_table
    def inverses(self) -> np.ndarray:
        """inverses()[i] is the index of 1 / element i, and 0 at 0: every
        nonzero mul row is a permutation, whose one 1 sits at the inverse."""
        return (self.mul_rows() == 1).argmax(axis=1)

    @_table
    def trace_values(self) -> np.ndarray:
        """Absolute trace of every element, by canonical index; the trace is
        GF(p)-linear, so it is the digits against Tr(x^j)."""
        basis = [self.from_index(self.p ** j).trace() for j in range(self.r)]
        return self._digits() @ np.array(basis) % self.p

    @_table
    def trace_characters(self) -> np.ndarray:
        """exp(2*pi*i * t / p) for every trace value t in [0, p)."""
        root = cmath.exp(2j * cmath.pi / self.p)
        return np.array([root ** t for t in range(self.p)], dtype=np.complex128)

    @_table
    def character_values(self) -> np.ndarray:
        """Additive character of every element, by canonical index: the
        trace_characters() entry of its trace, so both agree bit for bit."""
        return self.trace_characters()[self.trace_values()]

    @_table
    def character_table(self) -> np.ndarray:
        """q x q complex matrix with entry [a, b] = e(a * b), unnormalized."""
        return self.character_values()[self.mul_rows()]

    def fourier_matrix(self) -> np.ndarray:
        """Unitary Fourier kernel e(a * b) / sqrt(q)."""
        return self.character_table() / math.sqrt(self.q)


def _operator(method):
    """The operand rule of FieldElement arithmetic: an int is the
    prime-subfield constant, an element of another field is a
    ParameterError, and anything else is NotImplemented."""
    @functools.wraps(method)
    def operator(self, other):
        if isinstance(other, int):
            other = self.params.element(other)
        elif not isinstance(other, FieldElement):
            return NotImplemented
        elif other.params != self.params:
            raise ParameterError("mixed-field arithmetic is not defined")
        return method(self, other)
    return operator


@dataclass(frozen=True, slots=True)
class FieldElement:
    """One element of GF(p^r) in the polynomial basis of its FieldParams;
    params and coeffs cannot be reassigned, as the hash depends on them."""

    params: FieldParams
    coeffs: tuple

    def __post_init__(self):
        if not isinstance(self.params, FieldParams):
            raise ParameterError(f"params must be a FieldParams, got {self.params!r}")
        p, r = self.params.p, self.params.r
        if (type(self.coeffs) is not tuple or len(self.coeffs) != r
                or not all(type(c) is int and 0 <= c < p for c in self.coeffs)):
            raise ParameterError(f"GF({self.params.q}) coefficients must be a tuple of r={r} "
                                 f"integers in [0, {p}), got {self.coeffs!r}")

    __reduce__ = _reduce_through_init

    def index(self) -> int:
        """Canonical integer index sum(c_i * p**i)."""
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.params.p + c
        return idx

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self):
        if self.params.r == 1:
            return f"GF({self.params.q}):{self.coeffs[0]}"
        return f"GF({self.params.q}):{self.coeffs}"

    @_operator
    def __add__(self, other):
        p = self.params.p
        return FieldElement(
            self.params,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.params.p
        return FieldElement(self.params, tuple((-a) % p for a in self.coeffs))

    @_operator
    def __sub__(self, other):
        return self + (-other)

    @_operator
    def __rsub__(self, other):
        return other + (-self)

    @_operator
    def __mul__(self, other):
        params = self.params
        prod = _poly_mul(self.coeffs, other.coeffs, params.p)
        return FieldElement(params, _poly_rem(prod, params.modulus, params.p))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        # a^(q-2) = a^(-1) in the multiplicative group of order q-1.
        return self ** (self.params.q - 2)

    @_operator
    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.params.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def trace(self) -> int:
        """Absolute trace into GF(p): z + z^p + ... + z^(p^(r-1))."""
        params = self.params
        acc = self
        frob = self
        for _ in range(params.r - 1):
            frob = frob ** params.p
            acc = acc + frob
        if any(acc.coeffs[1:]):
            raise ContractError(f"trace of {self!r} landed outside the prime subfield")
        return acc.coeffs[0]

    def character(self) -> complex:
        """Additive character e(z) = exp(2*pi*i * Tr(z) / p)."""
        return cmath.exp(2j * cmath.pi * self.trace() / self.params.p)


def character_orthogonality_check(params: FieldParams) -> bool:
    """Verify sum_z e(x * z) * conj(e(y * z)) = q * delta(x, y) for every
    pair (x, y) of character_table() rows.

    The Gram matrix of the table against q * I, which holds exactly when
    fourier_matrix() is unitary; the return value is True only if every
    pair lands within ORTHOGONALITY_TOL of its exact target.
    """
    table = params.character_table()
    gram = table @ table.conj().T
    return bool(np.all(np.abs(gram - params.q * np.eye(params.q)) <= ORTHOGONALITY_TOL))


def parse_field_spec(text: str) -> FieldParams:
    """Parse a field order such as '7' or '9' (prime powers) into FieldParams.

    An explicit modulus can be appended after a colon as comma-separated
    coefficients, low degree first: '4:1,1,1' is GF(4) mod x^2 + x + 1.
    """
    text = text.strip()
    modulus = None
    if ":" in text:
        head, _, tail = text.partition(":")
        text = head.strip()
        try:
            modulus = tuple(int(c) for c in tail.split(","))
        except ValueError:
            raise ParameterError(f"bad modulus spec {tail!r}") from None
    try:
        q = int(text)
    except ValueError:
        raise ParameterError(f"field order must be an integer, got {text!r}") from None
    if q < 2:
        raise ParameterError(f"field order must be at least 2, got {q}")
    # Refuse before trial division, which takes sqrt(q) steps.
    check_cap("field", q, "elements", DEFAULT_MAX_Q)
    # Factor q as p^r with p the smallest prime factor.
    p = next((c for c in range(2, math.isqrt(q) + 1) if q % c == 0), q)
    r = 0
    rem = q
    while rem % p == 0:
        rem //= p
        r += 1
    if rem != 1:
        raise ParameterError(f"{q} is not a prime power")
    return FieldParams(p, r, modulus=modulus)
