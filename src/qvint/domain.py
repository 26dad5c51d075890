"""Vector families in GF(q)^n: explicit sets, Vandermonde rows, monomial rows.

A Domain is a deduplicated, canonically ordered set of vectors.  Canonical
order sorts by the tuple of element indices, so results that enumerate or
pick representatives are reproducible across runs and machines.

It also owns the internal form of GF(q)^n that the other layers compute
on: (m, n) arrays of element indices, the flat-index codec (first
coordinate most significant, the order of state vectors) and dot_rows.
Domains are built, read and rank-checked on those arrays with the field's
index arithmetic (params.add, params.mul, negations(), inverses()); VectorFq
and dot are the public API and the reference for them.

Besides construction this module owns the two structural measurements the
counting layer needs: the number of vectors touching a zero coordinate, and
exhaustive verification that every small-enough subset of the domain is
linearly independent (the hypothesis behind the pre-image dichotomy).
"""

__all__ = [
    "Domain", "DomainStats", "IndependenceReport", "VectorFq", "build_explicit_domain",
    "build_monomial_domain", "build_vandermonde_domain", "dot", "monomial_exponents",
    "parse_vector", "read_domain_file", "validate_independence", "write_domain_file",
]

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, block_size, check_cap, check_int
from .field import (FieldElement, FieldParams, _as_array, _as_tuple, _read_only,
                    _reduce_through_init, parse_field_spec)

MAX_DOMAIN_VECTORS = 1 << 20
# Vectors times coordinates; wide domains pass the vector cap but not this.
MAX_DOMAIN_ENTRIES = 1 << 22
# Subsets x size^2 x n, the one cap on validate_independence's work, checked
# against the work done as it goes: _ranks takes 10-90 ns a step, so a few
# seconds at the cap.
MAX_ELIMINATION_STEPS = 10 ** 8


@dataclass(frozen=True, slots=True)
class VectorFq:
    """Fixed-length vector over one field; immutable once built."""

    entries: tuple

    def __post_init__(self):
        entries = _as_tuple(self.entries, "vector coordinates")
        if not entries:
            raise ParameterError("vectors must have at least one coordinate")
        if not all(isinstance(e, FieldElement) and e.params == entries[0].params
                   for e in entries):
            raise ParameterError("all coordinates must come from the same field")
        object.__setattr__(self, "entries", entries)

    __reduce__ = _reduce_through_init

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

    def __repr__(self):
        return f"VectorFq{self.index_tuple()}"


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


def _canonical_order(rows, q: int):
    """(order, fresh) for an (m, n) array of index rows: a stable sort into
    canonical order, and whether each sorted row differs from the one before
    it.  Each int64 key is the flat index of as many consecutive columns as
    fit in 62 bits, so one np.lexsort over the keys sorts any space: one key
    for all but the widest rows, and one all-zero key for rows of no column."""
    per = 62 // (q - 1).bit_length()
    keys = np.stack([rows_to_flat(rows[:, i:i + per], q)
                     for i in range(0, max(rows.shape[1], 1), per)])
    order = np.lexsort(keys[::-1])
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (np.diff(keys[:, order], axis=1) != 0).any(axis=0)
    return order, fresh


def vector_from_flat(params: FieldParams, n: int, flat: int) -> VectorFq:
    """The vector of GF(q)^n at one flat index."""
    return VectorFq.from_index_tuple(params, flat_to_rows(flat, params.q, n).tolist())


def _index_array(rows, width: int, bound: int) -> np.ndarray:
    """Read-only copy of rows as a (len(rows), width) index array, every
    entry in [0, bound), else a ParameterError; an empty list has no rows."""
    array = _as_array(rows, np.intp).copy()
    array = array.reshape(0, width) if array.shape == (0,) else array
    if array.shape[1:] != (width,):
        raise ParameterError(f"index rows must have {width} entries each, got shape {array.shape}")
    if array.size and not 0 <= array.min() <= array.max() < bound:
        raise ParameterError(f"indices must lie in [0, {bound})")
    return _read_only(array)


def dot_rows(params: FieldParams, s, rows) -> np.ndarray:
    """Index of s . z for every row z of an (m, n) index array: one add/mul
    table step per coordinate, equal to dot(s, z).index().  s is one index
    row, or an array broadcasting against rows: (S, 1, n) gives the (S, m)
    table of S secrets, and (m, n) the m row-by-row dot products."""
    s = np.asarray(s)
    acc = np.zeros(np.broadcast_shapes(s.shape[:-1], rows.shape[:-1]), dtype=np.intp)
    for i in range(s.shape[-1]):
        acc = params.add(acc, params.mul(s[..., i], rows[..., i]))
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
    witness: tuple | None  # index rows of the offending vectors when refuted


@dataclass(frozen=True, eq=False)
class Domain:
    """Canonically ordered set of distinct vectors in GF(q)^n, held as their
    index rows: indices is a read-only (size, n) array.  No attribute can be
    rebound, since the cached independence report rests on them all."""

    params: FieldParams
    indices: np.ndarray
    label: str = "explicit"
    n: int = field(init=False)

    def __post_init__(self):
        rows = _as_array(self.indices, np.intp)
        if rows.ndim != 2 or rows.size == 0:
            raise ParameterError("a domain needs at least one vector")
        rows = _index_array(rows, rows.shape[1], self.params.q)
        order, fresh = _canonical_order(rows, self.params.q)
        object.__setattr__(self, "indices", _read_only(rows[order[fresh]]))
        object.__setattr__(self, "n", rows.shape[1])

    __reduce__ = _reduce_through_init

    @property
    def lines(self) -> np.ndarray:
        """Every scaled vector y*v in walk order, read-only: lines[j*q + y] is
        the index row of y*v_j, the weight at canonical index y.  Built on
        each access, not cached: held for the domain's lifetime, its |V|*q*n
        entries would raise the peak of every later census step."""
        weights = np.arange(self.params.q)[:, None]
        return _read_only(self.params.mul(weights, self.indices[:, None]).reshape(-1, self.n))

    @property
    def size(self) -> int:
        return len(self.indices)

    def same_as(self, other: "Domain") -> bool:
        """Whether other holds the same vectors over the same field (labels aside)."""
        return self is other or (self.params == other.params
                                 and np.array_equal(self.indices, other.indices))

    def zero_touching_count(self) -> int:
        """Number of domain vectors with at least one zero coordinate."""
        return int(np.count_nonzero((self.indices == 0).any(axis=1)))

    def stats(self) -> DomainStats:
        return DomainStats(
            field_order=self.params.q,
            characteristic=self.params.p,
            extension_degree=self.params.r,
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
        return self._independence

    @cached_property
    def _independence(self) -> IndependenceReport:
        return validate_independence(self)

    def __repr__(self):
        return f"Domain({self.label}, q={self.params.q}, n={self.n}, size={self.size})"


def _ranks(stack, params: FieldParams) -> np.ndarray:
    """Rank over GF(q) of every index matrix in a (B, m, n) stack, by one
    elimination of all B at once: step i takes row i, already reduced by the
    rows above it, and clears its first nonzero column from the rows below."""
    rows = np.array(stack, dtype=np.intp)
    every = np.arange(len(rows))
    for i in range(rows.shape[1] - 1):
        row = rows[:, i]
        # Pivot column of row i: the pivot, then the leads of the rows below.
        column = rows[every, i:, (row != 0).argmax(axis=1)]
        # factor = -lead / pivot, zero when row i is zero (the inverse of 0 is 0).
        factor = params.mul(params.negations()[column[:, 1:]], params.inverses()[column[:, :1]])
        rows[:, i + 1:] = params.add(params.mul(factor[:, :, None], row[:, None, :]),
                                     rows[:, i + 1:])
    # Steps leave row i zero exactly when it depends on the rows above it.
    return rows.any(axis=2).sum(axis=1)


def validate_independence(domain: Domain) -> IndependenceReport:
    """Check that every subset of size min(n, |V|) is linearly independent.

    Subsets are visited in canonical order, so a refutation always reports
    the same witness, the index tuples of the first deficient subset.  They
    are ranked in blocks by _ranks: the first block is the first subset
    alone, the next ones hold up to errors.BLOCK_ENTRIES entries (subsets x
    size x n).  Before each block the elimination work done so far is
    checked against MAX_ELIMINATION_STEPS: a domain refuted early is refuted
    however many subsets it has, and one whose next block would pass the
    cap raises ResourceCapError on the total work, rather than degrading to
    a sample.
    """
    size = min(domain.n, domain.size)
    total, steps = math.comb(domain.size, size), size * size * domain.n
    subsets = itertools.chain.from_iterable(itertools.combinations(range(domain.size), size))
    checked, block = 0, 1
    while checked < total:
        if (checked + block) * steps > MAX_ELIMINATION_STEPS:  # raises if total passes it
            check_cap("independence check", total * steps, "elimination steps",
                      MAX_ELIMINATION_STEPS)
        chunk = np.fromiter(itertools.islice(subsets, block * size), dtype=np.intp)
        chunk = chunk.reshape(-1, size)
        deficient = np.flatnonzero(_ranks(domain.indices[chunk], domain.params) < size)
        if deficient.size:
            return IndependenceReport(
                status="refuted",
                subset_size=size,
                subsets_checked=checked + int(deficient[0]) + 1,
                witness=tuple(map(tuple, domain.indices[chunk[deficient[0]]].tolist())),
            )
        checked += len(chunk)
        block = block_size(size * domain.n)
    return IndependenceReport(
        status="verified", subset_size=size, subsets_checked=checked, witness=None
    )


def _check_size(stage: str, size: int, n: int) -> None:
    """Refuse a domain of size vectors of length n before building it."""
    check_cap(stage, size, "vectors", MAX_DOMAIN_VECTORS)
    check_cap("domain", size * n, "entries", MAX_DOMAIN_ENTRIES)


def build_explicit_domain(vectors) -> Domain:
    """Domain from an iterable of VectorFq (deduplicated, canonically sorted)."""
    vectors = _as_tuple(vectors, "domain vectors")
    if not vectors:
        raise ParameterError("a domain needs at least one vector")
    for v in vectors:
        # vectors[0] comes first, so its params are read only once it passed.
        if not isinstance(v, VectorFq) or v.params != vectors[0].params or v.n != vectors[0].n:
            raise ParameterError(f"domain vectors must be VectorFq of one field and length, "
                                 f"got {v!r}")
    _check_size("domain", len(vectors), vectors[0].n)
    return Domain(vectors[0].params, [v.index_tuple() for v in vectors])


def build_vandermonde_domain(params: FieldParams, degree: int) -> Domain:
    """All rows (1, x, x^2, ..., x^degree) for x in GF(q); n = degree + 1."""
    check_int("Vandermonde degree", degree, 1)
    _check_size("domain", params.q, degree + 1)
    return Domain(params, _power_table(params, degree).T,
                  label=f"vandermonde(q={params.q}, d={degree})")


def _power_table(params: FieldParams, degree: int) -> np.ndarray:
    """(degree + 1, q) array whose [e, a] entry is the index of a^e, 0^0 = 1.
    Powers repeat with period q - 1 from e = 1 on (a^(q-1) = 1 for a != 0,
    0^e = 0), so at most q rows are multiplied out and the rest gathered."""
    q = params.q
    powers = [np.ones(q, dtype=np.intp)]  # index 1 is the element 1
    for _ in range(min(degree, q - 1)):
        powers.append(params.mul(powers[-1], np.arange(q)))
    return np.stack(powers)[np.concatenate(([0], np.arange(degree) % (q - 1) + 1))]


def monomial_exponents(variables: int, degree: int) -> tuple:
    """Exponent tuples of all monomials in `variables` variables with total
    degree at most `degree`, in graded order (degree first, then
    lexicographic on the exponent tuple)."""
    check_int("variable count", variables, 1)
    check_int("monomial degree", degree, 1)
    # Grow prefixes one variable at a time, keeping only those whose sum
    # stays <= degree: C(variables + degree, degree) tuples at the end.
    exps = [()]
    for _ in range(variables):
        exps = [e + (power,) for e in exps for power in range(degree + 1 - sum(e))]
    return tuple(sorted(exps, key=lambda e: (sum(e), e)))


def build_monomial_domain(params: FieldParams, variables: int, degree: int) -> Domain:
    """Rows (a^e over all exponent tuples e) for every point a in GF(q)^m.

    Coordinates follow monomial_exponents order; the constant monomial maps
    every point to 1 (0^0 = 1 by convention), so the first coordinate is
    never zero and rows for distinct points are distinct.
    """
    check_int("variable count", variables, 1)
    check_int("monomial degree", degree, 1)
    # Refuse before monomial_exponents builds its C(m + d, d) tuples; past
    # 64 variables q^64 is already over the cap and prints as a lower bound.
    # The vector cap goes first: it leaves variables <= 20, so the binomial
    # for n stays cheap however large degree is.
    q = params.q
    size = q ** min(variables, 64)
    check_cap("domain", size, "vectors", MAX_DOMAIN_VECTORS)
    n = math.comb(variables + degree, degree)
    check_cap("domain", size * n, "entries", MAX_DOMAIN_ENTRIES)
    exps = monomial_exponents(variables, degree)
    powers = _power_table(params, degree)
    points = flat_to_rows(np.arange(q ** variables), q, variables)
    columns = []
    for e in exps:
        acc = np.ones(len(points), dtype=np.intp)
        for i, power in enumerate(e):
            acc = params.mul(acc, powers[power, points[:, i]])
        columns.append(acc)
    return Domain(params, np.stack(columns, axis=1),
                  label=f"monomial(q={params.q}, m={variables}, d={degree})")


# -- domain files ------------------------------------------------------------
#
# Plain text, one vector per line after a header:
#
#     q=9 n=3 modulus=1,0,1
#     1:0,0:1,2:2
#
# Elements are comma-separated; coefficients of one extension-field element
# are colon-joined, low degree first.  Prime fields just write the residue.


def _format_index(params: FieldParams, index: int) -> str:
    if params.r == 1:
        return str(index)
    return ":".join(str(index // params.p ** i % params.p) for i in range(params.r))


def _parse_index(params: FieldParams, token: str) -> int:
    """Element index of one token: a residue, or r colon-joined coefficients."""
    token = token.strip()
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
    return sum(c % params.p * params.p ** i for i, c in enumerate(coeffs))


def parse_vector(params: FieldParams, text: str) -> VectorFq:
    """Parse a comma-separated vector in the domain-file element syntax."""
    return VectorFq.from_index_tuple(params, [_parse_index(params, tok)
                                             for tok in text.split(",")])


def write_domain_file(domain: Domain, path) -> None:
    params = domain.params
    header = f"q={params.q} n={domain.n}"
    if params.r > 1:
        header += " modulus=" + ",".join(str(c) for c in params.modulus)
    lines = [header]
    lines.extend(",".join(_format_index(params, i) for i in row)
                 for row in domain.indices.tolist())
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
    header = {}
    for token in lines[0].split():
        key, _, value = token.partition("=")
        if key not in ("q", "n", "modulus"):
            raise ParameterError(f"unknown header token {token!r} in {path}")
        header[key] = value
    if "q" not in header or not header.get("n", "").isdigit():
        raise ParameterError(f"domain file {path} needs q= and an integer n= in its header")
    # q and modulus are the field spec q:modulus, with its rules and errors.
    params = parse_field_spec(":".join(header[key] for key in ("q", "modulus") if key in header))
    n = int(header["n"])
    _check_size("domain file", len(lines) - 1, n)
    rows = []
    index_of = {}  # token -> element index; each distinct token is parsed once
    for line in lines[1:]:
        tokens = line.split(",")
        index_of.update((tok, _parse_index(params, tok)) for tok in dict.fromkeys(tokens)
                        if tok not in index_of)
        row = list(map(index_of.__getitem__, tokens))
        if len(row) != n:
            raise ParameterError(
                f"vector {line!r} has {len(row)} coordinates, header says n={n}"
            )
        rows.append(row)
    return Domain(params, rows, label="file")
