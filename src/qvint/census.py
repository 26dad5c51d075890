"""Exhaustive pre-image census of the weighted-combination map on a domain.

For a domain V in GF(q)^n and a query count k, the map sends a tuple of k
domain vectors with k field weights to the weighted sum of the vectors.
Everything downstream (success probabilities, transversals, the
second-moment identity, the zero-count tail bound) is read off the exact
per-target pre-image counts, so this module enumerates all (|V|*q)^k input
tuples and never samples.  That one walk also picks the transversal: each
target's first pre-image in walk order, i.e. the lexicographically smallest
sequence of (vector position, weight index) pairs ((v0, y0), (v1, y1), ...).

All counts are big integers and all derived statistics are Fractions;
floating point never enters here.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .domain import Domain, VectorFq, _index_array, dot_rows, flat_to_rows
from .errors import ContractError, ParameterError, check_cap
from .field import FieldElement, FieldParams

DEFAULT_MAX_TUPLES = 10 ** 8
# Points t of GF(q)^n per vectorised pass of the second-moment right side.
_RHS_BLOCK = 4096


@dataclass(frozen=True)
class Preimage:
    """One input tuple of the combination map: k vectors with k weights."""

    vectors: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.vectors) != len(self.weights):
            raise ParameterError(
                f"{len(self.vectors)} vectors but {len(self.weights)} weights"
            )
        if self.vectors:
            params = self.vectors[0].params
            for w in self.weights:
                if not isinstance(w, FieldElement) or w.params != params:
                    raise ParameterError("weights must live in the vectors' field")

    @property
    def k(self) -> int:
        return len(self.vectors)


def linear_combination(vectors, weights, *, params: FieldParams = None,
                       n: int = None) -> VectorFq:
    """Weighted sum of vectors; the empty combination needs explicit params/n
    to know which zero vector to return."""
    vectors = tuple(vectors)
    weights = tuple(weights)
    if len(vectors) != len(weights):
        raise ParameterError(f"{len(vectors)} vectors but {len(weights)} weights")
    if not vectors:
        if params is None or n is None:
            raise ParameterError("empty combination needs explicit params and n")
        return VectorFq(tuple(params.zero() for _ in range(n)))
    acc = vectors[0].scale(weights[0])
    for v, w in zip(vectors[1:], weights[1:]):
        acc = acc + v.scale(w)
    return acc


@dataclass(eq=False)
class PreimageCensus:
    """Exact pre-image counts of every target hit by at least one input.

    counts maps the target's element-index tuple to its total pre-image
    count; good_counts holds the sub-count with pairwise-distinct vectors
    and all weights nonzero; first holds the walk-order ordinal of its first
    pre-image, whose k base-(|V|*q) digits, most significant first, are the
    pairs position * q + weight.  Targets with count zero are omitted.
    """

    domain: Domain
    k: int
    counts: dict
    good_counts: dict
    first: dict

    @property
    def total(self) -> int:
        return (self.domain.size * self.domain.params.q) ** self.k

    @property
    def image_size(self) -> int:
        return len(self.counts)

    @property
    def codomain_size(self) -> int:
        return self.domain.params.q ** self.domain.n

    def count_of(self, z: VectorFq) -> int:
        return self.counts.get(z.index_tuple(), 0)

    def good_count_of(self, z: VectorFq) -> int:
        return self.good_counts.get(z.index_tuple(), 0)

    def mean(self) -> Fraction:
        """Average pre-image count over the whole codomain."""
        return Fraction(self.total, self.codomain_size)

    def second_moment_sum(self) -> int:
        """Sum of squared pre-image counts, an exact integer."""
        return sum(c * c for c in self.counts.values())

    def variance(self) -> Fraction:
        mu = self.mean()
        return Fraction(self.second_moment_sum(), self.codomain_size) - mu * mu

    def zero_count_fraction(self) -> Fraction:
        """Fraction of codomain targets with no pre-image at all."""
        return Fraction(self.codomain_size - self.image_size, self.codomain_size)

    def success_probability(self) -> Fraction:
        """|image| / q^n, the algorithm's exact success probability."""
        return Fraction(self.image_size, self.codomain_size)

    @cached_property
    def transversal(self) -> "Transversal":
        """One pre-image per image point, each its first in walk order; keys in
        canonical order, decoded from first on first access."""
        q = self.domain.params.q
        width = self.domain.size * q
        keys = sorted(self.first)
        places = [width ** i for i in reversed(range(self.k))]  # Python ints: no wrap
        digits = _index_array([[self.first[key] // place % width for place in places]
                               for key in keys], self.k)
        return Transversal(self.domain, self.k, keys, digits // q, digits % q)


def _check_k(k) -> None:
    if not isinstance(k, int) or k < 0:
        raise ParameterError(f"query count must be a non-negative integer, got {k!r}")


def enumerate_census(domain: Domain, k: int, *,
                     max_tuples: int = DEFAULT_MAX_TUPLES) -> PreimageCensus:
    """Walk all (|V|*q)^k input tuples, tally exact pre-image counts and
    record each target's first pre-image.

    Raises ResourceCapError (naming the tuple count) before starting if the
    walk would exceed max_tuples.
    """
    _check_k(k)
    params = domain.params
    q = params.q
    # The power stops at max(64, cap bits) factors: past that it is over the
    # cap, as |V|*q >= 2, and prints as a lower bound, so a huge k costs
    # nothing.  If check_cap returns, total is the exact tuple count.
    total = (domain.size * q) ** min(k, max(64, max_tuples.bit_length()))
    check_cap("census", total, "tuples", max_tuples)
    zero_key = (0,) * domain.n
    if k == 0:
        return PreimageCensus(domain, 0, {zero_key: 1}, {zero_key: 1}, {zero_key: 0})

    add = params.add_rows().tolist()
    # scaled[j][y] = weight y times domain vector j: mul[y, indices[j, c]] as [j][y][c].
    scaled = params.mul_rows()[:, domain.indices].transpose(1, 0, 2).tolist()
    # One entry per (vector, weight) pair, in walk order: its ordinal digit,
    # its scaled row, a bit marking the vector for distinctness tracking, and
    # whether the weight is nonzero.
    pairs = [
        (j * q + y, tuple(scaled[j][y]), 1 << j, y != 0)
        for j in range(domain.size)
        for y in range(q)
    ]
    width = len(pairs)
    counts: dict = {}
    good: dict = {}
    first: dict = {}

    def descend(level, acc, used, good_flag, ordinal):
        ordinal *= width
        if level < k - 1:
            for digit, row, bit, nonzero in pairs:
                descend(
                    level + 1,
                    tuple([add[a][b] for a, b in zip(acc, row)]),
                    used | bit,
                    good_flag and nonzero and not (used & bit),
                    ordinal + digit,
                )
            return
        for digit, row, bit, nonzero in pairs:
            key = tuple([add[a][b] for a, b in zip(acc, row)])
            seen = counts.get(key, 0)
            if not seen:
                first[key] = ordinal + digit
            counts[key] = seen + 1
            if good_flag and nonzero and not (used & bit):
                good[key] = good.get(key, 0) + 1

    descend(0, zero_key, 0, True, 0)

    if sum(counts.values()) != total:
        raise ContractError("census total does not match the tuple count")
    return PreimageCensus(domain, k, counts, good, first)


@dataclass(frozen=True, eq=False)
class ImageSet:
    """All targets with at least one pre-image, in canonical order; keys
    holds their index rows as a read-only (size, n) array, and elements
    decodes them to VectorFq on first access."""

    params: FieldParams
    n: int
    keys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "keys", _index_array(self.keys, self.n))

    @cached_property
    def elements(self) -> tuple:
        return tuple(VectorFq.from_index_tuple(self.params, key)
                     for key in self.keys.tolist())

    @cached_property
    def _key_set(self) -> frozenset:
        return frozenset(map(tuple, self.keys.tolist()))

    @property
    def size(self) -> int:
        return len(self.keys)

    def __contains__(self, z):
        if not isinstance(z, VectorFq) or z.params != self.params or z.n != self.n:
            return False
        return z.index_tuple() in self._key_set


def image_set(census: PreimageCensus) -> ImageSet:
    """Extract the census's image in canonical order."""
    return ImageSet(params=census.domain.params, n=census.domain.n,
                    keys=sorted(census.counts))


@dataclass(frozen=True, eq=False)
class Transversal:
    """One chosen pre-image per image point, as read-only integer arrays:
    image point keys[i] is the sum of the domain vectors at positions[i]
    weighted by the elements with indices weights[i].  Construction checks,
    once, that every pre-image maps to its key and no key repeats: otherwise
    the simulator's relabeling step is not unitary, a ContractError."""

    domain: Domain
    k: int
    keys: np.ndarray  # (size, n)
    positions: np.ndarray  # (size, k)
    weights: np.ndarray  # (size, k)

    def __post_init__(self):
        for name, width in (("keys", self.domain.n), ("positions", self.k), ("weights", self.k)):
            object.__setattr__(self, name, _index_array(getattr(self, name), width))
        keys, positions, weights = self.keys, self.positions, self.weights
        add, mul = self.domain.params.add_rows(), self.domain.params.mul_rows()
        # Combination map on every pre-image at once: z = sum_i y_i * v_i.
        z = np.zeros_like(keys)
        for i in range(self.k):
            z = add[z, mul[weights[:, i, None], self.domain.indices[positions[:, i]]]]
        bad = np.flatnonzero((z != keys).any(axis=1))
        if bad.size:
            key, got = keys[bad[0]].tolist(), z[bad[0]].tolist()
            raise ContractError(f"transversal entry for {tuple(key)} maps to {tuple(got)}")
        if len(np.unique(keys, axis=0)) != len(keys):
            raise ContractError("in-place relabeling hit the same target twice")

    @property
    def size(self) -> int:
        return len(self.keys)

    @cached_property
    def pairs(self) -> dict:
        """z index-tuple -> Preimage, in canonical order of z."""
        vectors = self.domain.vectors
        elements = self.domain.params.elements()
        return {
            tuple(key): Preimage(tuple(vectors[j] for j in positions),
                                 tuple(elements[y] for y in weights))
            for key, positions, weights in zip(
                self.keys.tolist(), self.positions.tolist(), self.weights.tolist())
        }


def good_set_sizes(domain: Domain, k: int) -> tuple:
    """Exact sizes (k!*C(|V|,k), (q-1)^k) of the good input components."""
    _check_k(k)
    v_good = math.factorial(k) * math.comb(domain.size, k)
    y_good = (domain.params.q - 1) ** k
    return v_good, y_good


def image_size_lower_bound(domain: Domain, k: int) -> int:
    """Guaranteed lower bound C(|V|,k)*(q-1)^k on the image size.

    Valid only when every small subset of the domain is independent and
    2k <= n; both hypotheses are enforced here because the bound is simply
    wrong without them.
    """
    _check_k(k)
    if 2 * k > domain.n:
        raise ContractError(
            f"lower bound needs 2k <= n, got k={k} with n={domain.n}"
        )
    report = domain.independence()
    if report.status != "verified":
        raise ContractError(
            "lower bound needs the subset-independence hypothesis, "
            f"but it is {report.status} for this domain"
        )
    return math.comb(domain.size, k) * (domain.params.q - 1) ** k


@dataclass(frozen=True)
class SecondMomentCheck:
    """Both sides of the exact second-moment identity."""

    lhs: int
    rhs: Fraction
    equal: bool


def second_moment_identity_check(domain: Domain, k: int, *,
                                 census: PreimageCensus = None,
                                 max_tuples: int = DEFAULT_MAX_TUPLES) -> SecondMomentCheck:
    """Compare sum of squared counts against the closed-form character sum.

    The right side is (|V|q)^(2k)/q^n plus (q^(2k)/q^n) times the sum over
    nonzero t of (number of domain vectors orthogonal to t)^(2k), evaluated
    directly; equality is exact rational equality, not approximate.
    """
    if census is None:
        census = enumerate_census(domain, k, max_tuples=max_tuples)
    elif census.k != k or not census.domain.same_as(domain):
        raise ParameterError("supplied census does not match (domain, k)")
    params = domain.params
    q = params.q
    n = domain.n
    codomain = q ** n
    check_cap("identity right side", codomain * domain.size, "dot products", max_tuples)
    # hit_tally[h] counts the nonzero t orthogonal to exactly h domain vectors.
    hit_tally = np.zeros(domain.size + 1, dtype=np.int64)
    for start in range(1, codomain, _RHS_BLOCK):
        block = flat_to_rows(np.arange(start, min(start + _RHS_BLOCK, codomain)), q, n)
        hits = np.zeros(len(block), dtype=np.intp)
        for v in domain.indices:
            hits += dot_rows(params, v, block) == 0
        hit_tally += np.bincount(hits, minlength=domain.size + 1)
    two_k = 2 * k
    # Python ints: hits ** (2k) overflows int64.
    ortho_power_sum = sum(tally * hits ** two_k
                          for hits, tally in enumerate(hit_tally.tolist()))
    rhs = Fraction(
        (domain.size * q) ** two_k + q ** two_k * ortho_power_sum, codomain
    )
    lhs = census.second_moment_sum()
    return SecondMomentCheck(lhs=lhs, rhs=rhs, equal=Fraction(lhs) == rhs)


def chebyshev_zero_bound(domain: Domain, k: int) -> Fraction:
    """Tail bound q^n * (|V_0|/|V|)^(2k) on the fraction of unhit targets.

    May exceed 1, in which case it is vacuous but still valid.
    """
    _check_k(k)
    q = domain.params.q
    return Fraction(q ** domain.n) * Fraction(
        domain.zero_touching_count(), domain.size
    ) ** (2 * k)
