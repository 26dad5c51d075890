"""Dense state-vector simulation of the k-query interpolation procedure.

States live in C^(q^n), indexed by the canonical order on GF(q)^n (first
coordinate most significant).  The simulator follows the three algorithm
steps exactly: uniform superposition over a transversal, one phase per
query batch, in-place relabeling by the combination map.  Because the
transversal holds one pre-image per image point, the relabeling is a
permutation on the support, so a dense vector over the codomain is enough;
the (|V|*q)^k-dimensional query register is never materialized.

Measurement in the Fourier basis and sampling are computed from the same
vectors.  The Fourier-basis probabilities come from n matrix products, one
per coordinate: each multiplies the conjugate Fourier kernel into the
leading coordinate and leaves the result as the trailing one, so after n
products the coordinates are back in canonical order.  A batch of states
takes the same products, row by row, as a single state, so both agree bit
for bit.  The rank of the reachable state family comes from its
certificate: the character table's Gram matrix is q times the identity, so
the Fourier kernel is unitary and the rank is the number of image points,
which a Domain holds distinct.

The computation runs on the integer index arrays of the domain, image and
transversal, the flat-index codec and the field's index arithmetic and
character tables; VectorFq appears only at the API boundary.  The trace is
GF(p)-linear, so every phase is e(sum_i a_i * b_i) =
exp(2*pi*i * sum_i Tr(a_i * b_i) / p): a sum of traces of products,
trace_values()[mul(a, b)], then one lookup in trace_characters() tiled
past the largest sum, with no reduction mod p.  One kickback kernel,
_phases, does this for every phase: a pre-image, a list of (vector,
weight) pairs (v_i, w_i) indexed as Domain.lines is, picks up
e(sum_i w_i * y_i) from the answers y_i at its vectors.  Query phases
take the oracle answers s . v_i, from dot_rows, at the transversal's
pre-images.  A Fourier phase e(s . z) is the same kickback with the secret
itself as the answers, at z's pre-image in the coordinate basis, the pairs
(e_i, z_i).  The Fourier vector F_s of a secret s has amplitude
e(s . z)/sqrt(q^n) at every z; no function here builds it whole.  One
success kernel takes |<F_s | state>|^2 for a batch of states at once, by
one stacked inner product whose rows equal np.vdot's bit for bit.  A sweep
over many secrets applies run_algorithm's phase rule to blocks of secrets
at once, building the transversal's columns once for every block.  The
phase-query identity depends on the shift s . v alone, which lies in
GF(q), so a check over many secrets conjugates each distinct shift value
once and gathers every secret's verdict from those.
"""

__all__ = [
    "OutcomeDistribution", "SampleReport", "StateVector", "outcome_distribution",
    "phase_query_check", "run_algorithm", "sample_outcomes", "state_family_rank",
    "success_probability",
]

import math
import random
from dataclasses import dataclass

import numpy as np

from .census import Transversal
from .domain import Domain, VectorFq, dot_rows, flat_to_rows, rows_to_flat, vector_from_flat
from .errors import ContractError, ParameterError, block_size, blocks, check_cap, check_int
from .field import (FieldParams, _as_array, _read_only, _reduce_through_init,
                    character_orthogonality_check)

DEFAULT_MAX_AMPLITUDES = 1 << 20
# Float tolerances of outcome_distribution and phase_query_check.
OUTCOME_SUM_TOL = 1e-9
PHASE_QUERY_TOL = 1e-12
# sample_outcomes draws in blocks, so its memory is flat in trials; this caps
# its time, which is about 7 s at 10^8 trials.
MAX_TRIALS = 10 ** 8


def _check_state_size(params: FieldParams, n: int) -> int:
    size = params.q ** n
    check_cap(f"state over GF({params.q})^{n}", size, "amplitudes", DEFAULT_MAX_AMPLITUDES)
    return size


def _check_secret(params: FieldParams, n: int, secret: VectorFq) -> np.ndarray:
    """The secret's (1, n) index row, once it is a VectorFq of length n over
    the field, else a ParameterError."""
    if not isinstance(secret, VectorFq):
        raise ParameterError(f"secret must be a VectorFq, got {type(secret).__name__}")
    if secret.params != params or secret.n != n:
        raise ParameterError(
            f"secret has length {secret.n} over GF({secret.params.q}), "
            f"state needs length {n} over GF({params.q})"
        )
    return np.array([secret.index_tuple()])


def _flat_copy(value, entries, dtype) -> np.ndarray:
    """A read-only dtype copy of entries, one per point of GF(q)^n in
    canonical flat order (value's params and n), else a ParameterError."""
    check_int("vector length", value.n, 0)
    array = _as_array(entries, dtype).copy()
    size = value.params.q ** value.n
    if array.shape != (size,):
        raise ParameterError(f"GF({value.params.q})^{value.n} needs {size} entries, "
                             f"got an array of shape {array.shape}")
    return _read_only(array)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over GF(q)^n in canonical flat order, held as a
    read-only copy of exactly q^n entries."""

    params: FieldParams
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _flat_copy(self, self.amplitudes, np.complex128))

    __reduce__ = _reduce_through_init


def _phases(params: FieldParams, answers: np.ndarray, columns) -> np.ndarray:
    """The kickback phases of S answer rows y (S, J) at m pre-images given
    as a (C, m) array of indices j*q + w laid out as Domain.lines is: pair
    (j, w) kicks back e(w * y_j), and a pre-image sums the traces
    Tr(w * y_j) of its C pairs, then takes one lookup in trace_characters()
    tiled past the largest sum, C * p, with no % p.  A C-contiguous (S, m)
    table."""
    # kick[s, j * q + w] = Tr(w * y[s, j]), one row per answer row.
    kick = params.trace_values()[params.mul(answers[..., None], np.arange(params.q))].reshape(
        len(answers), -1)
    totals = np.zeros((len(answers), columns.shape[1]), dtype=np.intp)
    # Gathers by contiguous rows of indices are fast.
    for column in np.ascontiguousarray(columns):
        totals += np.take(kick, column, axis=1)
    return np.resize(params.trace_characters(), max(len(columns), 1) * params.p)[totals]


def _query_phases(domain: Domain, secrets: np.ndarray, columns) -> np.ndarray:
    """The query phases of S secret index rows (S, n) at pre-images given as
    (k, m) columns of Domain.lines indices, preimages.T: query i answers
    s . v_i, from dot_rows, and kicks back e(w_i * (s . v_i))."""
    params = domain.params
    return _phases(params, dot_rows(params, secrets[:, None, :], domain.indices), columns)


def _coordinates(params: FieldParams, keys: np.ndarray) -> np.ndarray:
    """The pre-image of each of m key rows z (m, n) in the coordinate basis,
    the pairs (e_i, z_i), as C-contiguous (n, m) columns i*q + z_i: _phases
    with S secret index rows (S, n) themselves as the answers gives the
    Fourier phases e(sum_i z_i * s_i) = e(s . z) at the keys."""
    return np.ascontiguousarray(keys.T) + params.q * np.arange(keys.shape[1])[:, None]


def _success(params: FieldParams, n: int, fourier: np.ndarray, amplitudes: np.ndarray) -> list:
    """|<F_s | a>|^2 for each row pair of S Fourier phase rows e(s . z) and
    amplitude rows a on the same m points (both (S, m)), as Python floats.

    One stacked matmul takes the S inner products; each equals np.vdot's on
    its rows bit for bit.  The modulus and square are hypot and pow, as a
    scalar's abs() and ** 2 take them: numpy's array abs and square round
    differently in the last bit."""
    inner = np.matmul(fourier.conj()[:, None, :], amplitudes[:, :, None]).ravel()
    return (np.float_power(np.hypot(inner.real, inner.imag), 2) / params.q ** n).tolist()


def run_algorithm(transversal: Transversal, secret: VectorFq) -> StateVector:
    """Simulate the three steps on the transversal support, over the domain
    and k the transversal was picked for.

    Starts from the uniform superposition over the transversal's pre-images,
    applies the k query phases: query i answers s . v_i, and the pre-image
    picks up e(sum_i y_i (s . v_i)) = e(s . z).  It then relabels each
    pre-image by its image point z, a bijection onto the image: the
    Transversal derived each key from its pre-image and refused a repeat.
    """
    domain = transversal.domain
    params = domain.params
    secrets = _check_secret(params, domain.n, secret)
    amps = np.zeros(_check_state_size(params, domain.n), dtype=np.complex128)
    phases = _query_phases(domain, secrets, transversal.preimages.T)
    amps[rows_to_flat(transversal.keys, params.q)] = phases[0] * (1.0 / math.sqrt(transversal.size))
    return StateVector(params=params, n=domain.n, amplitudes=amps)


def _sweep(transversal: Transversal, flats):
    """run_algorithm and success_probability for the secrets at flat indices
    flats, in blocks of errors.BLOCK_ENTRIES amplitudes (one secret per block
    when a state alone holds more).  A block also holds at most that many
    kickbacks, one per secret and (vector, weight) pair, which only a domain
    with more pairs than image points, such as one of collinear vectors,
    makes the tighter bound.  The pre-image and coordinate columns are
    built once, for every block.

    Yields (secrets, amplitudes, fourier, success) per block: the (S, n)
    secret index rows; each final state's amplitudes on the transversal
    keys, a C-contiguous (S, size) table in key order; the Fourier phases
    e(s.z) at those keys, in the same layout; and each state's success
    probability.  When the keys are in canonical order, as a census picks
    them, every float equals the one-secret functions' bit for bit.
    """
    domain = transversal.domain
    params, n = domain.params, domain.n
    scale = 1.0 / math.sqrt(transversal.size)
    columns = np.ascontiguousarray(transversal.preimages.T)
    coordinates = _coordinates(params, transversal.keys)
    for b in blocks(len(flats), max(transversal.size, domain.size * params.q)):
        secrets = flat_to_rows(flats[b], params.q, n)
        amplitudes = _query_phases(domain, secrets, columns) * scale
        fourier = _phases(params, secrets, coordinates)
        yield secrets, amplitudes, fourier, _success(params, n, fourier, amplitudes)


def success_probability(state: StateVector, secret: VectorFq) -> float:
    """|<F_s | state>|^2 for the secret s, where F_s has amplitude
    e(s . z)/sqrt(q^n) at every z; the sum runs over the state's support."""
    params = state.params
    secrets = _check_secret(params, state.n, secret)
    support = np.flatnonzero(state.amplitudes)
    columns = _coordinates(params, flat_to_rows(support, params.q, state.n))
    return _success(params, state.n, _phases(params, secrets, columns),
                    state.amplitudes[None, support])[0]


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Analytic Fourier-basis measurement probabilities over GF(q)^n, held
    like StateVector's amplitudes."""

    params: FieldParams
    n: int
    probs: np.ndarray  # flat, canonical order

    def __post_init__(self):
        probs = _flat_copy(self, self.probs, np.float64)
        # Sampling draws from these as they are, so they must be a distribution
        # (within OUTCOME_SUM_TOL of 1); a NaN fails both tests, an inf the sum.
        if not (probs.min() >= 0 and abs(probs.sum() - 1.0) <= OUTCOME_SUM_TOL):
            raise ParameterError(f"outcome probabilities must be >= 0 and sum to 1, "
                                 f"got sum {probs.sum()}")
        object.__setattr__(self, "probs", probs)

    __reduce__ = _reduce_through_init

    def top(self, count: int = 5) -> list:
        """The count heaviest outcomes as (vector, probability)."""
        return _heaviest(self, self.probs, count)


def _heaviest(value, weights: np.ndarray, count: int) -> list:
    """(vector, weight) of the count heaviest points of a flat array over
    value's GF(q)^n, ranked on weights rounded to 12 decimals with ties
    broken by canonical order, so outcomes whose floats differ by rounding
    noise alone are listed canonically and the listing is deterministic."""
    check_int("count", count, 0)
    order = np.argsort(-np.round(weights, 12), kind="stable")
    return [(vector_from_flat(value.params, value.n, int(i)), weights[i].item())
            for i in order[:count]]


def outcome_distribution(state: StateVector) -> OutcomeDistribution:
    """p(t) = |<F_t | state>|^2 for every t, all at once, where F_t has
    amplitude e(t . z)/sqrt(q^n) at every z.

    Computed by one matrix product per coordinate: the amplitudes, viewed
    as (q^(n-1), q) with the leading coordinate as columns, times the
    conjugate Fourier kernel, which makes the contracted coordinate the
    trailing one; after n products the outcomes are in canonical order.
    This equals q^n separate inner products up to rounding, and each row
    of a batch computed by _outcome_probs equals this bit for bit.
    """
    probs = _outcome_probs(state.params, state.n, state.amplitudes)
    return OutcomeDistribution(params=state.params, n=state.n, probs=probs)


def _outcome_probs(params: FieldParams, n: int, amplitudes: np.ndarray) -> np.ndarray:
    """outcome_distribution's probabilities for each state along the last
    axis of (..., q^n) amplitudes; each state's must sum to 1, else a
    ContractError."""
    kernel = params.fourier_matrix().conj().T
    lead = amplitudes.shape[:-1]
    arr = amplitudes
    for _ in range(n):
        # The leading coordinate, contracted, becomes the trailing one.
        arr = arr.reshape(lead + (params.q, -1)).swapaxes(-1, -2) @ kernel
    probs = np.abs(arr.reshape(lead + (-1,))) ** 2
    for total in np.atleast_1d(probs.sum(axis=-1)).tolist():
        if abs(total - 1.0) > OUTCOME_SUM_TOL:
            raise ContractError(
                f"outcome probabilities sum to {total}, expected 1 within {OUTCOME_SUM_TOL}"
            )
    return probs


@dataclass(frozen=True, eq=False)
class SampleReport:
    """Empirical counts, as sample_outcomes draws them: tallies holds the
    draws of every outcome like StateVector's amplitudes."""

    params: FieldParams
    n: int
    tallies: np.ndarray  # flat, canonical order

    def __post_init__(self):
        tallies = _flat_copy(self, self.tallies, np.int64)
        if tallies.min() < 0 or not tallies.any():
            raise ParameterError("draw tallies must be >= 0 with at least one draw")
        object.__setattr__(self, "tallies", tallies)

    __reduce__ = _reduce_through_init

    @property
    def trials(self) -> int:
        """The number of draws, the sum of the tallies."""
        # Python ints, as an int64 sum of large tallies would wrap.
        return sum(self.tallies.tolist())

    def frequency_of(self, t: VectorFq) -> float:
        _check_secret(self.params, self.n, t)
        return int(self.tallies[rows_to_flat(t.index_tuple(), self.params.q)]) / self.trials

    def top(self, count: int = 5) -> list:
        """The count heaviest observed outcomes as (vector, draws)."""
        return [(v, draws) for v, draws in _heaviest(self, self.tallies, count) if draws]


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next count values of rng.random(), bit for bit, as one array.

    random() builds each value from two 32-bit Mersenne Twister outputs a, b
    as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, which is exact in a float64;
    randbytes lays the same outputs out as little-endian words, in order.
    """
    words = np.frombuffer(rng.randbytes(8 * count), dtype="<u4").reshape(-1, 2)
    return ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) * (1.0 / 9007199254740992.0)


def sample_outcomes(dist: OutcomeDistribution, trials: int, seed: int) -> SampleReport:
    """Draw trials outcomes reproducibly: same seed, same counts.

    Inverse-CDF over canonical outcome order: the first trials values of
    random.Random(seed).random() each pick the first outcome whose
    cumulative probability exceeds it, or the last outcome.  Python keeps
    that stream the same across versions, so the counts depend only on
    (distribution, trials, seed).  The draws come in sorted blocks of
    errors.BLOCK_ENTRIES (or q^n, so that counting a block against the CDF
    stays linear in its draws), counted by one binary search per outcome,
    so memory does not grow with trials.
    """
    check_int("trials", trials, 1)
    # random.Random would hash a float, str or bool seed without complaint.
    check_int("seed", seed, 0)
    check_cap("sampling", trials, "trials", MAX_TRIALS)
    rng = random.Random(seed)
    cdf = np.cumsum(dist.probs)[:-1]
    block = max(block_size(1), len(dist.probs))
    tallies = np.zeros(len(dist.probs), dtype=np.int64)
    for start in range(0, trials, block):
        draws = np.sort(_uniforms(rng, min(block, trials - start)))
        # Outcome i takes the draws in [cdf[i-1], cdf[i]); the last, every
        # draw from cdf[-1] on.
        tallies += np.diff(np.searchsorted(draws, cdf, side="left"),
                           prepend=0, append=len(draws))
    return SampleReport(params=dist.params, n=dist.n, tallies=tallies)


def state_family_rank(image: Domain) -> int:
    """Rank of the q^n x |image| matrix of phases e(s.z) over all secrets s,
    z running over the image points, held as a Domain.

    The row space spans every final state any algorithm supported on the
    image can reach, so this rank caps the number of distinguishable
    secrets.  Column z is the character at z, a column of the n-fold tensor
    power of the q x q Fourier kernel; when that kernel is unitary, so is
    its tensor power, and the rank is the number of image points, which a
    Domain holds distinct.  The kernel is unitary exactly when the
    characters are orthogonal, sum_z e(a z) conj(e(b z)) = q * delta(a, b)
    at every pair, which character_orthogonality_check holds the character
    table's Gram matrix to, else a ContractError; no phase matrix is formed,
    so no cap applies.
    """
    if not character_orthogonality_check(image.params):
        raise ContractError(f"Fourier kernel is off unitary over GF({image.params.q})")
    return image.size


def _phase_query_holds(domain: Domain, secrets: np.ndarray) -> np.ndarray:
    """Whether the phase-query identity holds on every domain vector, for
    each of S secret index rows (S, n): one verdict per secret.

    Secret s shifts the answer register by s.v at each domain vector v, and
    the identity depends on the shift value alone, so each distinct value of
    the S x |V| shifts (at most q of them) is conjugated once, in blocks of
    kernels, and each secret's verdict gathers those of its shifts.
    """
    params = domain.params
    q = params.q
    check_cap("phase check", q * domain.size, "register pairs", DEFAULT_MAX_AMPLITUDES)
    fourier = params.fourier_matrix()
    shifts = dot_rows(params, secrets[:, None, :], domain.indices)
    values, inverse = np.unique(shifts, return_inverse=True)
    holds = np.empty(len(values), dtype=bool)
    columns = np.arange(q)
    for b in blocks(len(values), q * q):
        block = values[b, None]
        # fourier times the shift's permutation: column y is fourier's column y + s.v.
        conjugated = np.moveaxis(fourier[:, params.add(columns, block)], 1, 0) @ fourier.conj().T
        # Less the diagonal phases e(y * s.v), one (q,) row per kernel.
        conjugated[:, columns, columns] -= params.character_values()[params.mul(block, columns)]
        holds[b] = np.abs(conjugated).max(axis=(1, 2)) <= PHASE_QUERY_TOL
    return holds[inverse.reshape(shifts.shape)].all(axis=1)


def phase_query_check(domain: Domain, secret: VectorFq) -> bool:
    """Check the phase-query identity on every domain vector.

    For each v, conjugating the additive shift y -> y + s.v by the Fourier
    kernel on the answer register must equal the diagonal phase e(y * s.v),
    entry by entry within PHASE_QUERY_TOL.  The identity depends on the
    shift value alone, so each distinct value of s.v is conjugated once.
    """
    return bool(_phase_query_holds(domain, _check_secret(domain.params, domain.n, secret))[0])
