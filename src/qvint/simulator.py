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
past the largest sum, with no reduction mod p.  Query phases add one
kickback Tr(y_i * (s . v_i)) per query, the oracle answers s . v_i coming
from dot_rows; Fourier phases e(s . z) add Tr(s_i * z_i) over the coordinates.
The Fourier vector F_s of a secret s has amplitude e(s . z)/sqrt(q^n) at
every z; no function here builds it whole.  A sweep over many secrets
applies run_algorithm's phase rule to blocks of secrets at once, decoding
the transversal once per block instead of once per secret.  The
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


def _check_secret(params: FieldParams, n: int, secret: VectorFq):
    if not isinstance(secret, VectorFq):
        raise ParameterError(f"secret must be a VectorFq, got {type(secret).__name__}")
    if secret.params != params or secret.n != n:
        raise ParameterError(
            f"secret has length {secret.n} over GF({secret.params.q}), "
            f"state needs length {n} over GF({params.q})"
        )


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


def _support_state(params, n, keys, phases) -> StateVector:
    """Amplitude phases[i] / sqrt(len(keys)) at point keys[i], zero elsewhere."""
    amps = np.zeros(_check_state_size(params, n), dtype=np.complex128)
    amps[rows_to_flat(keys, params.q)] = phases * (1.0 / math.sqrt(len(keys)))
    return StateVector(params=params, n=n, amplitudes=amps)


def _characters(params: FieldParams, totals: np.ndarray, terms: int) -> np.ndarray:
    """e at every entry of totals, each a sum of `terms` traces and so below
    terms * p: a lookup in trace_characters() tiled that far, with no % p."""
    return np.resize(params.trace_characters(), max(terms, 1) * params.p)[totals]


def _query_phases(transversal: Transversal, secrets) -> np.ndarray:
    """The C-contiguous (S, size) phase table of S secret index rows (S, n):
    query i answers y = s . v_i, and a pre-image picks up the kickback
    e(w_i * y) of each query, w_i its weight.  The kickbacks are laid out
    as Domain.lines is, so each query's pre-image column gathers them as it is."""
    params = transversal.domain.params
    answers = dot_rows(params, secrets[:, None, :], transversal.domain.indices)
    # kick[s, v * q + w] = Tr(w * y[s, v]), one row per secret.
    kick = params.trace_values()[params.mul(answers[..., None], np.arange(params.q))].reshape(
        len(secrets), -1)
    totals = np.zeros((len(secrets), transversal.size), dtype=np.intp)
    # One contiguous row of kick columns per query, as in _fourier_phases.
    for column in np.ascontiguousarray(transversal.preimages.T):
        totals += np.take(kick, column, axis=1)
    return _characters(params, totals, transversal.k)


def _fourier_phases(params: FieldParams, secrets: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """e(s . z) for S secret index rows (S, n) at m key rows (m, n), as a
    C-contiguous (S, m) table: Tr(s_i * z_i) summed over the coordinates."""
    traces, elements = params.trace_values(), np.arange(params.q)
    totals = np.zeros((len(secrets), len(keys)), dtype=np.intp)
    # Row s of Tr(s_i * b) for every b, gathered at contiguous rows of key
    # coordinates: gathers by them are fast.
    for s, z in zip(secrets.T, np.ascontiguousarray(keys.T)):
        totals += np.take(traces[params.mul(s[:, None], elements)], z, axis=1)
    return _characters(params, totals, keys.shape[1])


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
    _check_secret(domain.params, domain.n, secret)
    phases = _query_phases(transversal, np.array([secret.index_tuple()]))
    return _support_state(domain.params, domain.n, transversal.keys, phases[0])


def _sweep(transversal: Transversal, flats):
    """run_algorithm and success_probability for the secrets at flat indices
    flats, in blocks of errors.BLOCK_ENTRIES amplitudes (one secret per block
    when a state alone holds more).  A block also holds at most that many
    kickbacks, one per secret and (vector, weight) pair, which only a domain
    with more pairs than image points, such as one of collinear vectors,
    makes the tighter bound.

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
    for b in blocks(len(flats), max(transversal.size, domain.size * params.q)):
        secrets = flat_to_rows(flats[b], params.q, n)
        amplitudes = _query_phases(transversal, secrets) * scale
        fourier = _fourier_phases(params, secrets, transversal.keys)
        # vdot on contiguous rows, as in success_probability, keeps every bit.
        yield secrets, amplitudes, fourier, [float(abs(np.vdot(f, a)) ** 2 / params.q ** n)
                                             for f, a in zip(fourier, amplitudes)]


def success_probability(state: StateVector, secret: VectorFq) -> float:
    """|<F_s | state>|^2 for the secret s, where F_s has amplitude
    e(s . z)/sqrt(q^n) at every z; the sum runs over the state's support."""
    params = state.params
    _check_secret(params, state.n, secret)
    support = np.flatnonzero(state.amplitudes)
    phases = _fourier_phases(params, np.array([secret.index_tuple()]),
                             flat_to_rows(support, params.q, state.n))
    return float(abs(np.vdot(phases[0], state.amplitudes[support])) ** 2 / params.q ** state.n)


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
    _check_secret(domain.params, domain.n, secret)
    return bool(_phase_query_holds(domain, np.array([secret.index_tuple()]))[0])
