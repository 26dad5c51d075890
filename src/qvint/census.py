"""Exact pre-image census of the weighted-combination map on a domain.

For a domain V in GF(q)^n and a query count k, the map sends a tuple of k
domain vectors with k field weights to the weighted sum of the vectors.
Everything downstream (success probabilities, transversals, the
second-moment identity, the zero-count tail bound) is read off the exact
per-target pre-image counts, never sampled.  A PreimageCensus is (domain,
k), and two engines give it the same integers:

* transform_census, which the commands run.  The counts are the k-fold
  convolution of the line measure (how many pairs (v, y) give each y*v)
  over the digit group of GF(q)^n, so a length-p DFT along every digit axis
  turns them into a pointwise k-th power.  The DFT runs modulo primes
  l = 1 (mod p) (Pollard, "The fast Fourier transform in a finite field",
  Math. Comp. 1971) and the residues are joined by CRT (Knuth, TAOCP vol. 2,
  4.3.3).  k enters only through the number of primes, about
  k*log2(|V|*q)/25, where the walk costs (|V|*q)^k.
* enumerate_census, the reference: it walks all (|V|*q)^k input tuples,
  sharing nothing with the DFT.  Each level adds every (vector, weight)
  pair's scaled row to a numpy block of partial sums at once, in blocks of
  at most errors.BLOCK_ENTRIES tuples.  verify and the tests hold the
  transform to it.

The transversal of either is each target's first pre-image in walk order,
i.e. the lexicographically smallest sequence of (vector position, weight
index) pairs ((v0, y0), (v1, y1), ...), picked level by level against R_j,
the support of the j-tuple counts, for the j levels that remain.  It holds
each pair as its index v*q + y into Domain.lines, the order the walk visits
pairs in, and derives the targets from those rows.  The
census owns N(t): one forward transform per census gives it, and it is
tallied once (hit_tally).  One level-j transform of it
(PreimageCensus._level), on the prime plan its cap check chose, gives the
counts, the good counts and every R_j; the tally gives each level the
values N(t) takes, and feeds the second-moment identity and the tail bound.

All counts are exact integers and all derived statistics are Fractions;
floating point never enters here.
"""

__all__ = [
    "PreimageCensus", "SecondMomentCheck", "Transversal", "enumerate_census", "transform_census",
]

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .domain import (Domain, _canonical_order, _index_array, dot_rows,
                     flat_to_rows, rows_to_flat)
from .errors import ContractError, blocks, check_cap, check_int
from .field import _is_prime, _read_only, _reduce_through_init

DEFAULT_MAX_TUPLES = 10 ** 8
# Transform primes lie in (2^25, 2^26): each exceeds every |V|*q a transform
# census accepts, and a sum of p products of two residues fits in int64 for
# every p <= 1021.
_PRIME_FLOOR = 1 << 25
_PRIME_CEILING = 1 << 26
# Dense counts: q^n points per census, times one residue per prime.
MAX_RESIDUES = 1 << 22
# The tuple count then stays below 2^(25 * 128), so every number an
# enumerate report prints stays within Python's 4300-digit limit on text.
MAX_TRANSFORM_PRIMES = 128
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class SecondMomentCheck:
    """Both sides of the exact second-moment identity."""

    lhs: int
    rhs: Fraction
    equal: bool


@dataclass(frozen=True, eq=False)
class PreimageCensus:
    """Exact pre-image count of every point of GF(q)^n, for (domain, k).

    A census is its domain and k alone; every array is derived from N(t) on
    first read, through one level-j transform (_level), and is read-only.
    dense holds the counts by flat index: int64 while the tuple count
    (|V|*q)^k is below 2^63, Python ints (object dtype) from there on.
    dense_good holds the good counts the same way, the pre-images with
    pairwise-distinct vectors and all weights nonzero.  enumerate_census
    seeds the two it tallies, so a walk census's dense and dense_good are
    its own; a copy carries (domain, k) and is recounted by the transform.
    No attribute can be rebound.

    N is indexed by digit characters: N(t) counts the domain vectors v on
    whose line F*v the character with flat index t is trivial.  On a prime
    field that is the number of v with t.v = 0; on an extension field it is
    that count at another point, relabelled through the trace-dual basis.
    So N(t) matches the field-orthogonal count as a histogram (hit_tally),
    not point by point.
    """

    domain: Domain
    k: int

    def __post_init__(self):
        check_int("query count", self.k, 0)

    __reduce__ = _reduce_through_init

    def _level(self, j: int, coefficient: Callable[[int], int] = None) -> np.ndarray:
        """The exact integers, each in [0, (|V|*q)^j], whose transform is
        coefficient(N(t)) at every t, by default (q*N(t))^j: the j-tuple
        counts, read-only by flat index.  The prime plan for level j is made
        once, as the check of every cap before N(t) is first computed; the
        inverse transform modulo each prime is lifted into the integers one
        prime at a time (Garner) as soon as it is made.  int64 when
        (|V|*q)^j < 2^63, else Python ints."""
        domain = self.domain
        primes = _transform_primes(domain, j)
        params, axes = domain.params, domain.params.r * domain.n
        levels = np.flatnonzero(self.hit_tally).tolist()  # the values N(t) takes
        values = [coefficient(h) if coefficient else (params.q * h) ** j for h in levels]
        modulus = 1
        for ell in primes:
            table = np.zeros(domain.size + 1, dtype=np.int64)
            table[levels] = [v % ell for v in values]
            residue = _dft(table[self._hits], params.p, axes, ell, inverse=True)
            if modulus > 1:  # the first residue is the value as it is: no q^n copy
                if modulus * ell >= _INT64_LIMIT:
                    value = value.astype(object)
                lift = ((residue - (value % ell).astype(np.int64)) % ell
                        * pow(modulus, -1, ell) % ell)
                residue = value + lift.astype(value.dtype) * modulus
            value, modulus = residue, modulus * ell
        dtype = np.int64 if (domain.size * params.q) ** j < _INT64_LIMIT else object
        return _read_only(value.astype(dtype, copy=False))

    @cached_property
    def _hits(self) -> np.ndarray:
        """N(t) by flat index t, read-only: the forward transform of the line
        measure modulo the largest transform prime, over q, held in the
        narrowest unsigned dtype that holds |V|."""
        params, n = self.domain.params, self.domain.n
        measure = np.bincount(rows_to_flat(self.domain.lines, params.q), minlength=params.q ** n)
        hits = _dft(measure, params.p, params.r * n, _transform_primes(self.domain, 1)[0])
        np.floor_divide(hits, params.q, out=hits)  # in place: no second int64 q^n
        return _read_only(hits.astype(np.min_scalar_type(self.domain.size)))

    @cached_property
    def dense(self) -> np.ndarray:
        dense = self._level(self.k)
        if dense.sum() != self.total:
            raise ContractError("census total does not match the tuple count")
        return dense

    @cached_property
    def dense_good(self) -> np.ndarray:
        """Good counts: k! times the inverse transform of c(N(t)), c(h) the
        x^k coefficient of (1 + (q-1)x)^h (1 - x)^(|V|-h)."""
        q, size, k = self.domain.params.q, self.domain.size, self.k
        return self._level(k, lambda h: sum(
            math.comb(h, i) * (q - 1) ** i * math.comb(size - h, k - i) * (-1) ** (k - i)
            for i in range(min(h, k) + 1)) * math.factorial(k))

    @cached_property
    def hit_tally(self) -> np.ndarray:
        """tally[h], the number of points t of GF(q)^n with N(t) = h, for h
        in [0, |V|]; read-only.  t = 0 is counted at h = |V|."""
        return _read_only(np.bincount(self._hits, minlength=self.domain.size + 1))

    @property
    def largest_hyperplane_section(self) -> int:
        """max N(t) over t != 0 (flat index 0 is t = 0)."""
        return int(self._hits[1:].max())

    @cached_property
    def _image(self) -> np.ndarray:
        return np.flatnonzero(self.dense)

    @cached_property
    def image_keys(self) -> np.ndarray:
        """Index rows of the image points, in canonical (flat index) order."""
        return _read_only(flat_to_rows(self._image, self.domain.params.q, self.domain.n))

    @property
    def total(self) -> int:
        return (self.domain.size * self.domain.params.q) ** self.k

    @property
    def image_size(self) -> int:
        return len(self._image)

    @property
    def codomain_size(self) -> int:
        return self.domain.params.q ** self.domain.n

    def mean(self) -> Fraction:
        """Average pre-image count over the whole codomain."""
        return Fraction(self.total, self.codomain_size)

    def second_moment_sum(self) -> int:
        """Sum of squared pre-image counts, an exact integer."""
        return self._square_sum

    @cached_property
    def _square_sum(self) -> int:
        nonzero = self.dense[self._image]
        # int64 while no partial sum can wrap, Python ints otherwise.
        if nonzero.dtype == object or int(nonzero.max()) ** 2 * len(nonzero) >= _INT64_LIMIT:
            nonzero = nonzero.astype(object)
        return int(nonzero @ nonzero)

    def variance(self) -> Fraction:
        mu = self.mean()
        return Fraction(self.second_moment_sum(), self.codomain_size) - mu * mu

    def zero_count_fraction(self) -> Fraction:
        """Fraction of codomain targets with no pre-image at all."""
        return Fraction(self.codomain_size - self.image_size, self.codomain_size)

    def success_probability(self) -> Fraction:
        """|image| / q^n, the algorithm's exact success probability."""
        return Fraction(self.image_size, self.codomain_size)

    def good_set_sizes(self) -> tuple:
        """Exact sizes (k!*C(|V|,k), (q-1)^k) of the good input components."""
        k = self.k
        return math.factorial(k) * math.comb(self.domain.size, k), (self.domain.params.q - 1) ** k

    def image_size_lower_bound(self) -> int:
        """Guaranteed lower bound C(|V|,k)*(q-1)^k on the image size.

        Valid only when every small subset of the domain is independent and
        2k <= n; both hypotheses are enforced here because the bound is simply
        wrong without them.  Reads no counts.
        """
        domain, k = self.domain, self.k
        if 2 * k > domain.n:
            raise ContractError(f"lower bound needs 2k <= n, got k={k} with n={domain.n}")
        report = domain.independence()
        if report.status != "verified":
            raise ContractError(
                "lower bound needs the subset-independence hypothesis, "
                f"but it is {report.status} for this domain"
            )
        return math.comb(domain.size, k) * (domain.params.q - 1) ** k

    def second_moment_identity(self) -> SecondMomentCheck:
        """Compare sum of squared counts against the closed-form character sum.

        The right side is (q^(2k)/q^n) times the sum over every t of N(t)^(2k),
        read off hit_tally; t = 0 gives the (|V|q)^(2k)/q^n term.  For a
        transform census this is Parseval's relation, so it checks the
        inverse transform and the CRT; verify checks N(t) itself against the
        direct count.  Equality is exact rational equality, not approximate.
        """
        k = self.k
        rhs = Fraction(self.domain.params.q ** (2 * k) * _power_sum(self.hit_tally, 2 * k),
                       self.codomain_size)
        lhs = self.second_moment_sum()
        return SecondMomentCheck(lhs=lhs, rhs=rhs, equal=Fraction(lhs) == rhs)

    def chebyshev_zero_bound(self) -> Fraction:
        """Second-moment tail bound on the fraction of unhit targets:
        Var/mean^2 = sum over t != 0 of (N(t)/|V|)^(2k), by Chebyshev's
        inequality (Alon and Spencer, The Probabilistic Method, ch. 4).

        Reads N(t) alone, so on a census whose counts were never read it
        costs the line transform only.  May exceed 1, in which case it is
        vacuous but still valid.
        """
        scale = self.domain.size ** (2 * self.k)
        return Fraction(_power_sum(self.hit_tally, 2 * self.k) - scale, scale)  # t = 0 has N = |V|

    @cached_property
    def transversal(self) -> "Transversal":
        """Each image point's first pre-image in walk order; keys in canonical
        order, picked on first access."""
        return _pick_transversal(self)


def enumerate_census(domain: Domain, k: int) -> PreimageCensus:
    """Walk all (|V|*q)^k input tuples and tally exact pre-image counts: the
    reference engine transform_census is checked against.

    The walk is depth-first over blocks of partial sums.  A block of T sums
    at level j expands with numpy to the T*|V|*q sums of level j + 1, one per
    (vector, weight) pair, and carries the (T, j) positions used so far and
    a good flag: weight nonzero and position not used yet.  Expansions hold
    at most errors.BLOCK_ENTRIES tuples, so peak memory does not grow with
    k, and each block of leaves is tallied in time proportional to the block.

    Raises ResourceCapError (naming the tuple count) before starting if the
    walk would exceed DEFAULT_MAX_TUPLES, or if GF(q)^n has more than
    MAX_RESIDUES points to hold counts for.
    """
    census = PreimageCensus(domain, k)  # checks k
    params = domain.params
    q, n = params.q, domain.n
    # The power stops at 64 factors: past that it is over the cap, as
    # |V|*q >= 2, and prints as a lower bound, so a huge k costs nothing.
    # If check_cap returns, total is the exact tuple count.
    total = (domain.size * q) ** min(k, 64)
    check_cap("census", total, "tuples", DEFAULT_MAX_TUPLES)
    check_cap("census", q ** n, "points", MAX_RESIDUES)

    lines = domain.lines
    position, weight = np.divmod(np.arange(len(lines)), q)
    dense = np.zeros(q ** n, dtype=np.int64)
    dense_good = np.zeros(q ** n, dtype=np.int64)
    stack = [(np.zeros((1, n), dtype=np.intp), np.zeros((1, 0), dtype=np.intp),
              np.ones(1, dtype=bool))]
    while stack:
        acc, used, good = stack.pop()
        if used.shape[1] < k:
            acc = params.add(acc[:, None, :], lines).reshape(-1, n)
            good = (good[:, None] & (weight != 0)
                    & (used[:, :, None] != position).all(axis=1)).reshape(-1)
            if used.shape[1] + 1 < k:
                used = np.concatenate((np.repeat(used, len(lines), axis=0),
                                       np.tile(position, len(used))[:, None]), axis=1)
                # Each block of sums expands to at most BLOCK_ENTRIES tuples.
                stack.extend((acc[b], used[b], good[b]) for b in blocks(len(acc), len(lines)))
                continue
        # A block of leaves, tallied in time proportional to the block.
        flat = rows_to_flat(acc, q)
        np.add.at(dense, flat, 1)
        np.add.at(dense_good, flat[good], 1)

    if dense.sum() != total:
        raise ContractError("census total does not match the tuple count")
    # Seeded, not derived: census-totals holds the transform to these.
    vars(census).update(dense=_read_only(dense), dense_good=_read_only(dense_good))
    return census


def transform_census(domain: Domain, k: int) -> PreimageCensus:
    """The census from the character transform of the line measure: exactly
    the counts enumerate_census tallies, with k entering only through the
    number of primes.

    The line measure mu counts, for every point x of GF(q)^n, the pairs
    (v, y) with y*v = x.  A flat index is a base-p number of r*n digits, and
    addition in GF(q)^n is digit-wise mod p, so the counts are the k-fold
    convolution of mu over (Z_p)^(rn): a length-p DFT along every digit
    axis, a pointwise k-th power and the inverse DFT, each modulo primes
    l = 1 (mod p) whose product exceeds (|V|*q)^k, joined by CRT.

    Every prime exceeds q*|V|, so the forward transform of mu is exactly
    q*N(t), N(t) the number of domain vectors whose line t's character is
    trivial on; the census keeps N(t) for its good counts and reachable sets.

    Raises ResourceCapError before any transform work when the counts need
    more than MAX_TRANSFORM_PRIMES primes, GF(q)^n times the primes exceeds
    MAX_RESIDUES, or |V|*q leaves no prime to work modulo.
    """
    census = PreimageCensus(domain, k)
    census.dense  # every cap and the total check, before the census is returned
    return census


def _direct_hit_tally(domain: Domain) -> np.ndarray:
    """The reference for PreimageCensus.hit_tally: for each h, the number of
    points t with t.v = 0 for exactly h domain vectors v, by q^n * |V| field
    dot products in blocks.  Capped at DEFAULT_MAX_TUPLES dot products."""
    params, n = domain.params, domain.n
    codomain = params.q ** n
    check_cap("direct hit tally", codomain * domain.size, "dot products", DEFAULT_MAX_TUPLES)
    tally = np.zeros(domain.size + 1, dtype=np.int64)
    for b in blocks(codomain, n):
        block = flat_to_rows(np.arange(b.start, b.stop), params.q, n)
        hits = sum((dot_rows(params, v, block) == 0).astype(np.intp) for v in domain.indices)
        tally += np.bincount(hits, minlength=domain.size + 1)
    return _read_only(tally)


def _transform_primes(domain: Domain, k: int) -> list:
    """Primes l = 1 (mod p) in (2^25, 2^26), largest first, whose product
    exceeds (|V|*q)^k; the caps are checked before any big number is formed."""
    params = domain.params
    width = domain.size * params.q
    check_cap("census", width, "input pairs", _PRIME_FLOOR)
    # Each prime adds at least floor_bits bits and (|V|*q)^k < 2^(k * bits),
    # so this many always suffice; k may be huge, so no power is formed here.
    floor_bits = _PRIME_FLOOR.bit_length() - 1
    needed = max(1, -(-k * width.bit_length() // floor_bits))
    check_cap("census", needed, "transform primes", MAX_TRANSFORM_PRIMES)
    check_cap("census", params.q ** domain.n * needed, "residues", MAX_RESIDUES)
    total = width ** k
    primes, product = [], 1
    while product <= total:
        primes.append(_transform_prime(params.p, len(primes), _PRIME_FLOOR, _PRIME_CEILING))
        product *= primes[-1]
    return primes


@cache
def _transform_prime(p: int, i: int, floor: int, ceiling: int) -> int:
    """The (i+1)-th largest prime l = 1 (mod p) in (floor, ceiling), cached:
    the candidates are the largest one below ceiling that is 1 mod p, then
    every p-th below it."""
    candidate = (ceiling - 1 - (ceiling - 2) % p if i == 0
                 else _transform_prime(p, i - 1, floor, ceiling) - p)
    while candidate > floor:
        if _is_prime(candidate):
            return candidate
        candidate -= p
    raise ContractError(f"no transform prime left for p = {p}")


def _dft(values: np.ndarray, p: int, axes: int, ell: int, *,
         inverse: bool = False) -> np.ndarray:
    """Length-p DFT modulo ell along every axis of a flat array of p^axes
    residues, first axis most significant; the inverse includes the factor
    p^(-axes).  Entries are below ell < 2^26, so a row of p products, x, stays
    below p*ell^2 < 2^62.  Each axis pass multiplies into a spare int64 buffer
    and reduces x to x - (x // ell)*ell back into the buffer it read, as numpy
    floor-divides int64 by a scalar several times faster than it takes a
    remainder; so an int64 values array is overwritten: pass one the caller
    discards."""
    # Any g^((ell-1)/p) other than 1 is a primitive p-th root of unity.
    root = next(r for r in (pow(g, (ell - 1) // p, ell) for g in range(2, ell)) if r != 1)
    # The inverse's factor p^(-axes) is p^(-1) per axis, folded into the kernel.
    root, scale = (pow(root, -1, ell), pow(p, -1, ell)) if inverse else (root, 1)
    powers = np.array([pow(root, e, ell) * scale % ell for e in range(p)], dtype=np.int64)
    kernel = powers[np.outer(np.arange(p), np.arange(p)) % p]
    arr = np.asarray(values, dtype=np.int64)
    spare = np.empty_like(arr)
    for axis in range(axes):
        # Views that put this axis in the middle: no transposed copy.
        np.matmul(kernel, arr.reshape(p ** axis, p, -1), out=spare.reshape(p ** axis, p, -1))
        np.floor_divide(spare, ell, out=arr)  # x - (x // ell) * ell, into the freed buffer
        np.subtract(spare, np.multiply(arr, ell, out=arr), out=arr)
    return arr


def _pick_transversal(census: PreimageCensus) -> "Transversal":
    """First pre-image in walk order of every image point of the census.

    Level by level, every target takes the first (position, weight) pair
    whose remainder z - y*v the remaining levels can still reach: that is
    the lexicographically first pre-image, as the walk visits pairs in
    that order at every level.  R_j, the targets of j levels, is the support
    of the exact j-tuple counts, and final once it stops growing.
    """
    domain, k, keys = census.domain, census.k, census.image_keys
    params, n = domain.params, domain.n
    q = params.q
    reach = [np.arange(q ** n) == 0]
    for j in range(1, k):
        if j == 1 or not np.array_equal(reach[-1], reach[-2]):
            counts = census._level(j)
        reach.append(counts != 0)
    remainders = keys.copy()
    preimages = np.zeros((len(keys), k), dtype=np.intp)
    lines = domain.lines
    steps = params.negations()[lines]  # -y*v_j: a step subtracts pair j*q + y
    for level in range(k):
        reachable = reach[k - 1 - level]
        size = int(np.count_nonzero(reachable))
        # A scan tries pairs until the remainder lands in R, about once every
        # q^n/|R| pairs; a table of R + y*v costs |R| per pair.  Take the cheaper.
        # Neither alone will do: on Vandermonde GF(31) d=3 the table takes about
        # 20 s at level 0 of k=3 (|R| = 419431) and the scan about 10 s at
        # level 0 of k=2 (|R| = 931), where the cheaper one takes under 0.3 s.
        if len(lines) * size <= len(keys) * min(len(lines), q ** n // size):
            choice = _first_pairs_by_table(params, lines, reachable, remainders)
        else:
            choice = _first_pairs_by_scan(params, steps, reachable, remainders)
        if (choice == len(lines)).any():
            missing = keys[np.argmax(choice == len(lines))]
            raise ContractError(f"no pre-image reaches {tuple(missing.tolist())}")
        preimages[:, level] = choice
        remainders = params.add(remainders, steps[choice])
    return Transversal(domain, k, preimages)


def _first_pairs_by_table(params, lines, reachable, remainders) -> np.ndarray:
    """For each remainder r, the first pair index i with r - lines[i] in the
    reachable set (len(lines) if none), from a table over R + lines[i]: the
    least pair index scattered onto each point, for blocks of pairs at once."""
    first = np.full(len(reachable), len(lines), dtype=np.intp)
    members = flat_to_rows(np.flatnonzero(reachable), params.q, lines.shape[1])
    for b in blocks(len(lines), len(members)):
        block = np.arange(b.start, b.stop)
        targets = rows_to_flat(params.add(members, lines[block, None]), params.q)
        np.minimum.at(first, targets.reshape(-1), np.repeat(block, len(members)))
    return first[rows_to_flat(remainders, params.q)]


def _first_pairs_by_scan(params, steps, reachable, remainders) -> np.ndarray:
    """The same choice as _first_pairs_by_table, by trying the pairs in order,
    steps[i] = -lines[i], on the remainders not yet placed."""
    first = np.full(len(remainders), len(steps), dtype=np.intp)
    pending = np.arange(len(remainders))
    for pair, step in enumerate(steps):
        hit = reachable[rows_to_flat(params.add(remainders[pending], step), params.q)]
        first[pending[hit]] = pair
        pending = pending[~hit]
        if not pending.size:
            break
    return first


@dataclass(frozen=True, eq=False)
class Transversal:
    """One chosen pre-image per image point, as read-only integer arrays:
    row preimages[i] holds the k indices j*q + y into domain.lines of its
    pairs (v_j, y), and keys[i] is the image point they sum to, derived once
    from them by k adds.  No key may repeat: otherwise the simulator's
    relabeling step is not unitary, a ContractError."""

    domain: Domain
    k: int
    preimages: np.ndarray  # (size, k)
    keys: np.ndarray = field(init=False)  # (size, n)

    def __post_init__(self):
        check_int("query count", self.k, 0)
        params, lines = self.domain.params, self.domain.lines
        preimages = _index_array(self.preimages, self.k, len(lines))
        keys = np.zeros((len(preimages), self.domain.n), dtype=np.intp)
        for column in preimages.T:
            keys = params.add(keys, lines[column])
        # Sorted, a repeated key sits next to its twin.
        if not _canonical_order(keys, params.q)[1].all():
            raise ContractError("in-place relabeling hit the same target twice")
        object.__setattr__(self, "preimages", preimages)
        object.__setattr__(self, "keys", _read_only(keys))

    __reduce__ = _reduce_through_init

    @property
    def size(self) -> int:
        return len(self.keys)


def _power_sum(tally: np.ndarray, exponent: int) -> int:
    """Sum over h of tally[h] * h^exponent, in Python ints: h^(2k) overflows int64."""
    return sum(int(tally[h]) * h ** exponent for h in np.flatnonzero(tally).tolist())
