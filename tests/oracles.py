"""Object-level references the tests hold the package to.

No command or verify check runs these; they are here so that the
index-array kernels have something independent to be compared with.  Each
one computes with VectorFq and FieldElement arithmetic, or with Kronecker
products of the character table, and none imports a private name of qvint
(tests/test_api.py checks this), so none can reuse the kernel it checks.
"""

import itertools
import math

import numpy as np

from qvint import simulator
from qvint.domain import VectorFq, flat_to_rows, monomial_exponents, rows_to_flat
from qvint.errors import ParameterError, check_cap
from qvint.simulator import StateVector


def vectors_of(domain) -> tuple:
    """The domain's vectors as VectorFq, in its canonical order."""
    return tuple(VectorFq.from_index_tuple(domain.params, row) for row in domain.indices.tolist())


def nonzero_entries(values, q: int, n: int) -> dict:
    """Index tuple -> value of every nonzero entry of a flat array over
    GF(q)^n, in canonical order."""
    flats = np.flatnonzero(values)
    keys = map(tuple, flat_to_rows(flats, q, n).tolist())
    return dict(zip(keys, np.asarray(values)[flats].tolist()))


def counts_of(census) -> dict:
    """Index tuple -> pre-image count of every image point of a census."""
    return nonzero_entries(census.dense, census.domain.params.q, census.domain.n)


def good_counts_of(census) -> dict:
    """Index tuple -> good count of every point a census's good pre-images reach."""
    return nonzero_entries(census.dense_good, census.domain.params.q, census.domain.n)


def draws_of(report) -> dict:
    """Index tuple -> draws of every outcome a SampleReport observed."""
    return nonzero_entries(report.tallies, report.params.q, report.n)


def linear_combination(vectors, weights, *, params=None, n=None) -> VectorFq:
    """Weighted sum of vectors, each coordinate a sum of FieldElement
    products.  The empty sum needs params and n to know which zero vector
    to return."""
    vectors, weights = tuple(vectors), tuple(weights)
    if not vectors:
        return VectorFq(tuple(params.zero() for _ in range(n)))
    zero = vectors[0].params.zero()
    return VectorFq(tuple(sum((w * v.entries[i] for v, w in zip(vectors, weights)), zero)
                          for i in range(vectors[0].n)))


def monomial_image(plan) -> dict:
    """Exponent tuple -> reduced exponent, for every monomial of total degree
    <= plan.degree under a univariate_reduction plan's substitution."""
    return {e: sum(a * x for a, x in zip(e, plan.exponents))
            for e in monomial_exponents(plan.variables, plan.degree)}


def transversal_pairs(transversal) -> dict:
    """z index tuple -> (vectors, weights), the transversal's pre-image of z
    as tuples of VectorFq and FieldElement, in canonical order of z."""
    vectors = vectors_of(transversal.domain)
    elements = transversal.domain.params.elements()
    return {
        tuple(key): (tuple(vectors[j] for j in positions), tuple(elements[y] for y in weights))
        for key, positions, weights in zip(transversal.keys.tolist(),
                                           transversal.positions.tolist(),
                                           transversal.weights.tolist())
    }


def fourier_state(params, n: int, secret) -> StateVector:
    """The Fourier vector F_s: amplitude e(s.z)/sqrt(q^n) at every z, as the
    Kronecker product of the character table's rows s_i.  Refuses a secret
    of another field or length, and a state over the simulator's cap."""
    if not isinstance(secret, VectorFq):
        raise ParameterError(f"secret must be a VectorFq, got {type(secret).__name__}")
    if secret.params != params or secret.n != n:
        raise ParameterError(f"secret has length {secret.n} over GF({secret.params.q}), "
                             f"state needs length {n} over GF({params.q})")
    check_cap(f"state over GF({params.q})^{n}", params.q ** n, "amplitudes",
              simulator.DEFAULT_MAX_AMPLITUDES)
    table = params.character_table()
    amps = np.ones(1, dtype=np.complex128)
    for coord in secret.entries:
        amps = np.kron(amps, table[coord.index()])
    amps /= math.sqrt(params.q ** n)
    return StateVector(params=params, n=n, amplitudes=amps)


def norm(state) -> float:
    """Euclidean norm of a state's amplitudes."""
    return float(np.linalg.norm(state.amplitudes))


def inner(a, b) -> complex:
    """<a|b>, conjugating a; refuses states of another field or length."""
    if a.params != b.params or a.n != b.n:
        raise ParameterError("inner product needs matching field and length")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def restricted_fourier_state(image, secret) -> StateVector:
    """fourier_state restricted to the image points and renormalised:
    e(s.z)/sqrt(|image|) on the image, zero elsewhere."""
    if image.size == 0:
        raise ParameterError("cannot build a state over an empty image")
    full = fourier_state(image.params, image.n, secret).amplitudes
    amps = np.zeros_like(full)
    on_image = rows_to_flat(image.keys, image.params.q)
    amps[on_image] = full[on_image]
    return StateVector(params=image.params, n=image.n, amplitudes=amps / np.linalg.norm(amps))


def field_element_rank(vectors) -> int:
    """Rank over GF(q) by Gaussian elimination on FieldElement copies of the rows."""
    rows = [list(v.entries) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inv
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def independence_walk(domain) -> tuple:
    """(status, subset_size, subsets_checked, witness) of the subset walk:
    every subset of min(n, |V|) domain vectors, in lexicographic order of
    positions, ranked by field_element_rank until the first deficient one."""
    size = min(domain.n, domain.size)
    checked = 0
    for subset in itertools.combinations(vectors_of(domain), size):
        checked += 1
        if field_element_rank(subset) < size:
            return "refuted", size, checked, subset
    return "verified", size, checked, None
