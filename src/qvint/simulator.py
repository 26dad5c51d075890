"""Dense state-vector simulation of the k-query interpolation procedure.

States live in C^(q^n), indexed by the canonical order on GF(q)^n (first
coordinate most significant).  The simulator follows the three algorithm
steps exactly: uniform superposition over a transversal, one phase per
query batch, in-place relabeling by the combination map.  Because the
transversal holds one pre-image per image point, the relabeling is a
permutation on the support, so a dense vector over the codomain is enough;
the (|V|*q)^k-dimensional query register is never materialized.

Measurement in the Fourier basis, sampling, and the rank of the reachable
state family are computed from the same vectors.

The computation runs on the integer index arrays of the domain, image and
transversal, the flat-index codec and the field's numpy tables; VectorFq
appears only at the API boundary.  fourier_state takes Kronecker products
instead, so it stays an independent reference for that array path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .census import ImageSet, Transversal
from .domain import (Domain, VectorFq, dot_rows, flat_to_rows, rows_to_flat,
                     vector_from_flat)
from .errors import ContractError, ParameterError, check_cap
from .field import FieldParams

DEFAULT_MAX_AMPLITUDES = 1 << 20
# sample_outcomes holds about 26 bytes per trial, so this is about 260 MB.
MAX_TRIALS = 10 ** 7


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


@dataclass(eq=False)
class StateVector:
    """Complex amplitudes over GF(q)^n in canonical flat order."""

    params: FieldParams
    n: int
    amplitudes: np.ndarray

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude_of(self, z: VectorFq) -> complex:
        return complex(self.amplitudes[rows_to_flat(z.index_tuple(), self.params.q)])

    def inner(self, other: "StateVector") -> complex:
        if other.params != self.params or other.n != self.n:
            raise ParameterError("inner product needs matching field and length")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def fourier_state(params: FieldParams, n: int, secret: VectorFq) -> StateVector:
    """The exact Fourier vector: amplitude e(s.z)/sqrt(q^n) for every z."""
    _check_secret(params, n, secret)
    _check_state_size(params, n)
    table = params.character_table()
    amps = np.ones(1, dtype=np.complex128)
    for coord in secret.entries:
        amps = np.kron(amps, table[coord.index()])
    amps /= math.sqrt(params.q ** n)
    return StateVector(params=params, n=n, amplitudes=amps)


def restricted_fourier_state(image: ImageSet, secret: VectorFq) -> StateVector:
    """Fourier phases e(s.z)/sqrt(|image|) on the image, zero elsewhere."""
    if image.size == 0:
        raise ParameterError("cannot build a state over an empty image")
    params = image.params
    _check_secret(params, image.n, secret)
    size = _check_state_size(params, image.n)
    amps = np.zeros(size, dtype=np.complex128)
    phases = params.character_values()[dot_rows(params, secret.index_tuple(), image.keys)]
    amps[rows_to_flat(image.keys, params.q)] = phases * (1.0 / math.sqrt(image.size))
    return StateVector(params=params, n=image.n, amplitudes=amps)


def run_algorithm(domain: Domain, k: int, transversal: Transversal,
                  secret: VectorFq) -> StateVector:
    """Simulate the three steps on the transversal support.

    Starts from the uniform superposition over the transversal's pre-images,
    applies the k query phases e(s . sum y_i v_i), then relabels each
    pre-image by its image point.  The relabeling must be a bijection onto
    the image; any violation is a ContractError because it would make the
    step non-unitary.
    """
    if not transversal.domain.same_as(domain):
        raise ParameterError("transversal was built for a different domain")
    if transversal.k != k:
        raise ParameterError(f"transversal is for k={transversal.k}, asked for k={k}")
    params = domain.params
    n = domain.n
    _check_secret(params, n, secret)
    size = _check_state_size(params, n)
    add = params.add_rows()
    mul = params.mul_rows()
    keys, positions, weights = transversal.keys, transversal.positions, transversal.weights
    # Combination map on every pre-image at once: z = sum_i y_i * v_i.
    z = np.zeros_like(keys)
    for i in range(k):
        z = add[z, mul[weights[:, i, None], domain.indices[positions[:, i]]]]
    bad = np.flatnonzero((z != keys).any(axis=1))
    if bad.size:
        key, got = keys[bad[0]].tolist(), z[bad[0]].tolist()
        raise ContractError(f"transversal entry for {tuple(key)} maps to {tuple(got)}")
    flat = rows_to_flat(keys, params.q)
    if np.unique(flat).size != flat.size:
        raise ContractError("in-place relabeling hit the same target twice")
    amps = np.zeros(size, dtype=np.complex128)
    phases = params.character_values()[dot_rows(params, secret.index_tuple(), z)]
    amps[flat] = phases * (1.0 / math.sqrt(transversal.size))
    return StateVector(params=params, n=n, amplitudes=amps)


def success_probability(state: StateVector, secret: VectorFq) -> float:
    """|<fourier_state(secret) | state>|^2."""
    sigma = fourier_state(state.params, state.n, secret)
    return abs(sigma.inner(state)) ** 2


@dataclass(eq=False)
class OutcomeDistribution:
    """Analytic Fourier-basis measurement probabilities over GF(q)^n."""

    params: FieldParams
    n: int
    probs: np.ndarray  # flat, canonical order

    def prob_of(self, t: VectorFq) -> float:
        return float(self.probs[rows_to_flat(t.index_tuple(), self.params.q)])

    def argmax(self) -> VectorFq:
        return vector_from_flat(self.params, self.n, int(np.argmax(self.probs)))

    def top(self, count: int = 5) -> list:
        """Heaviest outcomes as (vector, probability), ties broken by
        canonical order so the listing is deterministic."""
        order = np.lexsort((np.arange(len(self.probs)), -self.probs))
        return [(vector_from_flat(self.params, self.n, int(i)), float(self.probs[i]))
                for i in order[:count]]


def outcome_distribution(state: StateVector, tol: float = 1e-9) -> OutcomeDistribution:
    """p(t) = |<fourier_state(t) | state>|^2 for every t, all at once.

    Computed by contracting each tensor axis with the conjugate Fourier
    kernel; identical to q^n separate inner products but one mode-product
    per coordinate instead.
    """
    params = state.params
    q = params.q
    n = state.n
    kernel = params.fourier_matrix().conj()
    arr = state.amplitudes.reshape((q,) * n)
    for axis in range(n):
        arr = np.moveaxis(np.tensordot(kernel, arr, axes=(1, axis)), 0, axis)
    probs = np.abs(arr.reshape(-1)) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > tol:
        raise ContractError(
            f"outcome probabilities sum to {total}, expected 1 within {tol}"
        )
    return OutcomeDistribution(params=params, n=n, probs=probs)


@dataclass(eq=False)
class SampleReport:
    """Empirical counts from seeded inverse-CDF sampling."""

    params: FieldParams
    n: int
    counts: dict  # index tuple -> count, only observed outcomes
    trials: int
    seed: int

    def frequency_of(self, t: VectorFq) -> float:
        return self.counts.get(t.index_tuple(), 0) / self.trials


def sample_outcomes(dist: OutcomeDistribution, trials: int, seed: int) -> SampleReport:
    """Draw trials outcomes reproducibly: same seed, same counts.

    Inverse-CDF over canonical outcome order, driven by numpy's default
    PRNG, so the result depends only on (distribution, trials, seed).
    """
    if not isinstance(trials, int) or trials < 1:
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")
    check_cap("sampling", trials, "trials", MAX_TRIALS)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(dist.probs)
    draws = rng.random(trials)
    positions = np.searchsorted(cdf, draws, side="right")
    positions = np.minimum(positions, len(dist.probs) - 1)
    flats, tallies = np.unique(positions, return_counts=True)
    keys = flat_to_rows(flats, dist.params.q, dist.n).tolist()
    counts = {tuple(key): tally for key, tally in zip(keys, tallies.tolist())}
    return SampleReport(params=dist.params, n=dist.n, counts=counts,
                        trials=trials, seed=seed)


def state_family_rank(image: ImageSet, rel_tol: float = 1e-8) -> int:
    """Rank of the q^n x |image| matrix of phases e(s.z) over all secrets s.

    The row space spans every final state any algorithm supported on the
    image can reach, so this rank caps the number of distinguishable
    secrets.  Singular values below rel_tol times the largest count as zero.
    """
    params = image.params
    _check_state_size(params, image.n)
    if image.size == 0:
        raise ParameterError("rank of an empty state family is undefined")
    table = params.character_table()
    # Column z is the Kronecker product of table[:, z_i] over coordinates.
    columns = np.ones((1, image.size), dtype=np.complex128)
    for coord in image.keys.T:
        columns = (columns[:, None, :] * table[:, coord][None, :, :]).reshape(-1, image.size)
    singular = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(singular > rel_tol * singular[0]))


def phase_query_check(domain: Domain, secret: VectorFq, tol: float = 1e-12) -> bool:
    """Check the phase-query identity on every domain vector.

    For each v, conjugating the additive shift y -> y + s.v by the Fourier
    kernel on the answer register must equal the diagonal phase e(y * s.v),
    entry by entry within tol.
    """
    params = domain.params
    q = params.q
    _check_secret(params, domain.n, secret)
    check_cap("phase check", q * domain.size, "register pairs", DEFAULT_MAX_AMPLITUDES)
    fourier = params.fourier_matrix()
    chars = params.character_values()
    add = params.add_rows()
    mul = params.mul_rows()
    for shift in dot_rows(params, secret.index_tuple(), domain.indices).tolist():
        permutation = np.zeros((q, q), dtype=np.complex128)
        permutation[add[:, shift], np.arange(q)] = 1.0
        conjugated = fourier @ permutation @ fourier.conj().T
        diagonal = np.diag(chars[mul[shift]])
        if np.max(np.abs(conjugated - diagonal)) > tol:
            return False
    return True
