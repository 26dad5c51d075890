"""Vector families in GF(q)^n: explicit sets, Vandermonde rows, monomial rows.

A Domain is a deduplicated, canonically ordered set of vectors.  Canonical
order sorts by the tuple of element indices, so results that enumerate or
pick representatives are reproducible across runs and machines.

It also owns the internal form of GF(q)^n that the other layers compute
on: (m, n) arrays of element indices, the flat-index codec (first
coordinate most significant, the order of state vectors) and dot_rows.
VectorFq and dot are the public API and the reference for those arrays.

Besides construction this module owns the two structural measurements the
counting layer needs: the number of vectors touching a zero coordinate, and
exhaustive verification that every small-enough subset of the domain is
linearly independent (the hypothesis behind the pre-image dichotomy).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_cap
from .field import FieldElement, FieldParams

MAX_DOMAIN_VECTORS = 1 << 20
DEFAULT_MAX_SUBSETS = 250_000


class VectorFq:
    """Fixed-length vector over one field; immutable once built."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ParameterError("vectors must have at least one coordinate")
        params = entries[0].params
        for e in entries:
            if not isinstance(e, FieldElement) or e.params != params:
                raise ParameterError("all coordinates must come from the same field")
        self.entries = entries

    @property
    def params(self) -> FieldParams:
        return self.entries[0].params

    @property
    def n(self) -> int:
        return len(self.entries)

    def index_tuple(self) -> tuple:
        return tuple(e.index() for e in self.entries)

    @classmethod
    def from_index_tuple(cls, params: FieldParams, indices) -> "VectorFq":
        return cls(tuple(params.from_index(i) for i in indices))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, VectorFq) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"VectorFq{self.index_tuple()}"

    def __add__(self, other):
        if not isinstance(other, VectorFq):
            return NotImplemented
        if other.n != self.n or other.params != self.params:
            raise ParameterError("vector addition needs matching length and field")
        return VectorFq(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, w: FieldElement) -> "VectorFq":
        return VectorFq(tuple(w * e for e in self.entries))


def dot(a: VectorFq, b: VectorFq) -> FieldElement:
    """Standard bilinear form sum_i a_i * b_i (no conjugation)."""
    if a.n != b.n or a.params != b.params:
        raise ParameterError("dot product needs matching length and field")
    acc = a.params.zero()
    for x, y in zip(a.entries, b.entries):
        acc = acc + x * y
    return acc


def _place_values(q: int, n: int) -> np.ndarray:
    """q^(n-1), ..., q, 1 as int64, refusing spaces whose flat indices would wrap."""
    check_cap(f"flat index of GF({q})^{n}", q ** n, "points", (1 << 63) - 1)
    return q ** np.arange(n - 1, -1, -1, dtype=np.int64)


def rows_to_flat(rows, q: int) -> np.ndarray:
    """Flat index of every index row, (m, n) -> (m,); one row (n,) gives a scalar."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ _place_values(q, rows.shape[-1])


def flat_to_rows(flat, q: int, n: int) -> np.ndarray:
    """Inverse of rows_to_flat: (m,) flat indices -> (m, n) index rows."""
    flat = np.asarray(flat, dtype=np.int64)[..., None]
    return (flat // _place_values(q, n) % q).astype(np.intp)


def vector_from_flat(params: FieldParams, n: int, flat: int) -> VectorFq:
    """The vector of GF(q)^n at one flat index."""
    return VectorFq.from_index_tuple(params, flat_to_rows(flat, params.q, n).tolist())


def dot_rows(params: FieldParams, s, rows) -> np.ndarray:
    """Index of s . z for every row z of an (m, n) index array, s one index
    row: one add/mul table step per coordinate, equal to dot(s, z).index()."""
    add = params.add_rows()
    mul = params.mul_rows()
    acc = np.zeros(len(rows), dtype=np.intp)
    for i, s_i in enumerate(s):
        acc = add[acc, mul[s_i, rows[:, i]]]
    return acc


@dataclass(frozen=True)
class DomainStats:
    """Order-independent summary of a domain."""

    field_order: int
    characteristic: int
    extension_degree: int
    length: int
    size: int
    zero_touching: int
    label: str


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of the exhaustive small-subset rank check."""

    status: str  # "verified" or "refuted"
    subset_size: int
    subsets_checked: int
    witness: tuple | None  # offending vectors when refuted


class Domain:
    """Canonically ordered set of distinct vectors in GF(q)^n; indices holds
    their index rows as a read-only (size, n) array, in the same order."""

    __slots__ = ("params", "n", "vectors", "indices", "label", "_zero_touching", "_independence")

    def __init__(self, vectors, label: str = "explicit"):
        vectors = list(vectors)
        if not vectors:
            raise ParameterError("a domain needs at least one vector")
        params = vectors[0].params
        n = vectors[0].n
        for v in vectors:
            if v.params != params or v.n != n:
                raise ParameterError("all domain vectors must share field and length")
        check_cap("domain", len(vectors), "vectors", MAX_DOMAIN_VECTORS)
        unique = {v.index_tuple(): v for v in vectors}
        keys = sorted(unique)
        self.params = params
        self.n = n
        self.vectors = tuple(unique[key] for key in keys)
        self.indices = np.array(keys, dtype=np.intp)
        self.indices.setflags(write=False)
        self.label = label
        self._zero_touching = None
        self._independence = None

    @property
    def size(self) -> int:
        return len(self.vectors)

    def zero_touching_count(self) -> int:
        """Number of domain vectors with at least one zero coordinate."""
        if self._zero_touching is None:
            self._zero_touching = int(np.count_nonzero((self.indices == 0).any(axis=1)))
        return self._zero_touching

    def stats(self) -> DomainStats:
        params = self.params
        return DomainStats(
            field_order=params.q,
            characteristic=params.p,
            extension_degree=params.r,
            length=self.n,
            size=self.size,
            zero_touching=self.zero_touching_count(),
            label=self.label,
        )

    def independence(self) -> IndependenceReport:
        """Exhaustively check every subset of size min(n, |V|) for full rank.

        The result is cached; the check either finishes exhaustively or
        raises ResourceCapError, it never samples.
        """
        if self._independence is None:
            self._independence = validate_independence(self)
        return self._independence

    def __repr__(self):
        return f"Domain({self.label}, q={self.params.q}, n={self.n}, size={self.size})"


def _rank(vectors) -> int:
    """Rank over GF(q) by Gaussian elimination on copies of the rows."""
    rows = [list(v.entries) for v in vectors]
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    for col in range(n):
        pivot = None
        for i in range(rank, len(rows)):
            if not rows[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            if rows[i][col].is_zero():
                continue
            factor = rows[i][col] * inv
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def validate_independence(domain: Domain) -> IndependenceReport:
    """Check that every subset of size min(n, |V|) is linearly independent.

    Subsets are visited in canonical order, so a refutation always reports
    the same witness.  Raises ResourceCapError when the subset count exceeds
    DEFAULT_MAX_SUBSETS rather than degrading to a sample.
    """
    size = min(domain.n, domain.size)
    total = math.comb(domain.size, size)
    check_cap("independence check", total, "subsets", DEFAULT_MAX_SUBSETS)
    checked = 0
    for subset in itertools.combinations(domain.vectors, size):
        checked += 1
        if _rank(subset) < size:
            return IndependenceReport(
                status="refuted",
                subset_size=size,
                subsets_checked=checked,
                witness=subset,
            )
    return IndependenceReport(
        status="verified", subset_size=size, subsets_checked=checked, witness=None
    )


def build_explicit_domain(vectors, label: str = "explicit") -> Domain:
    """Domain from an iterable of VectorFq (deduplicated, canonically sorted)."""
    return Domain(vectors, label=label)


def build_vandermonde_domain(params: FieldParams, degree: int) -> Domain:
    """All rows (1, x, x^2, ..., x^degree) for x in GF(q); n = degree + 1."""
    if not isinstance(degree, int) or degree < 1:
        raise ParameterError(f"Vandermonde degree must be a positive integer, got {degree!r}")
    vectors = []
    for x in params.elements():
        entries = [params.one()]
        for _ in range(degree):
            entries.append(entries[-1] * x)
        vectors.append(VectorFq(tuple(entries)))
    return Domain(vectors, label=f"vandermonde(q={params.q}, d={degree})")


def monomial_exponents(variables: int, degree: int) -> tuple:
    """Exponent tuples of all monomials in `variables` variables with total
    degree at most `degree`, in graded order (degree first, then
    lexicographic on the exponent tuple)."""
    if variables < 1 or degree < 1:
        raise ParameterError("monomial domains need variables >= 1 and degree >= 1")
    exps = [
        e
        for e in itertools.product(range(degree + 1), repeat=variables)
        if sum(e) <= degree
    ]
    exps.sort(key=lambda e: (sum(e), e))
    return tuple(exps)


def build_monomial_domain(params: FieldParams, variables: int, degree: int) -> Domain:
    """Rows (a^e over all exponent tuples e) for every point a in GF(q)^m.

    Coordinates follow monomial_exponents order; the constant monomial maps
    every point to 1 (0^0 = 1 by convention), so the first coordinate is
    never zero and rows for distinct points are distinct.
    """
    # Refuse before monomial_exponents scans (degree+1)^variables tuples; past
    # 64 variables q^64 is already over the cap and prints as a lower bound.
    check_cap("domain", params.q ** min(variables, 64), "vectors", MAX_DOMAIN_VECTORS)
    exps = monomial_exponents(variables, degree)
    vectors = []
    for point in itertools.product(params.elements(), repeat=variables):
        entries = []
        for e in exps:
            acc = params.one()
            for a, power in zip(point, e):
                if power:
                    acc = acc * a ** power
            entries.append(acc)
        vectors.append(VectorFq(tuple(entries)))
    return Domain(vectors, label=f"monomial(q={params.q}, m={variables}, d={degree})")


# -- domain files ------------------------------------------------------------
#
# Plain text, one vector per line after a header:
#
#     q=9 n=3 modulus=1,0,1
#     1:0,0:1,2:2
#
# Elements are comma-separated; coefficients of one extension-field element
# are colon-joined, low degree first.  Prime fields just write the residue.


def _format_element(e: FieldElement) -> str:
    if e.params.r == 1:
        return str(e.coeffs[0])
    return ":".join(str(c) for c in e.coeffs)


def _parse_element(params: FieldParams, token: str) -> FieldElement:
    try:
        coeffs = [int(c) for c in token.split(":")]
    except ValueError:
        raise ParameterError(f"bad element token {token!r}") from None
    if len(coeffs) not in (1, params.r):
        raise ParameterError(
            f"element token {token!r} has {len(coeffs)} coefficients, field needs {params.r}"
        )
    if params.r > 1 and len(coeffs) == 1 and not 0 <= coeffs[0] < params.p:
        example = "0:1" + ":0" * (params.r - 2)
        raise ParameterError(f"element token {token!r} is ambiguous on GF({params.q}): "
                             f"write it colon-joined, low degree first, e.g. {example}")
    return params.element(coeffs)


def parse_vector(params: FieldParams, text: str) -> VectorFq:
    """Parse a comma-separated vector in the domain-file element syntax."""
    tokens = [tok.strip() for tok in text.split(",")]
    return VectorFq(tuple(_parse_element(params, tok) for tok in tokens))


def write_domain_file(domain: Domain, path) -> None:
    params = domain.params
    header = f"q={params.q} n={domain.n}"
    if params.r > 1:
        header += " modulus=" + ",".join(str(c) for c in params.modulus)
    lines = [header]
    lines.extend(
        ",".join(_format_element(e) for e in v.entries) for v in domain.vectors
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_domain_file(path) -> Domain:
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = [line.strip() for line in fh]
    except UnicodeDecodeError:
        raise ParameterError(f"domain file {path} is not ASCII text") from None
    lines = [line for line in raw if line and not line.startswith("#")]
    if not lines:
        raise ParameterError(f"domain file {path} is empty")
    q = n = None
    modulus = None
    for token in lines[0].split():
        key, _, value = token.partition("=")
        if key not in ("q", "n", "modulus"):
            raise ParameterError(f"unknown header token {token!r} in {path}")
        try:
            if key == "q":
                q = int(value)
            elif key == "n":
                n = int(value)
            else:
                modulus = tuple(int(c) for c in value.split(","))
        except ValueError:
            raise ParameterError(f"bad header token {token!r} in {path}") from None
    if q is None or n is None:
        raise ParameterError(f"domain file {path} must declare q= and n= in its header")
    from .field import parse_field_spec  # local import to reuse the p^r factoring

    params = parse_field_spec(str(q))
    if modulus is not None:
        params = FieldParams(params.p, params.r, modulus=modulus)
    check_cap("domain file", len(lines) - 1, "vectors", MAX_DOMAIN_VECTORS)
    vectors = []
    for line in lines[1:]:
        vector = parse_vector(params, line)
        if vector.n != n:
            raise ParameterError(
                f"vector {line!r} has {vector.n} coordinates, header says n={n}"
            )
        vectors.append(vector)
    return Domain(vectors, label="file")
