"""Self-check suite over a built-in instance grid.

Every check returns a boolean verdict with a one-line detail, and run_all
names it.  The list of names is fixed by the grid: run_all never raises, and
an error raised by the modules under test fails each name whose check hit
it.  The command line front-end prints one line per check and exits nonzero
if any failed.

The grid covers prime and extension fields, Vandermonde and monomial
domains, and every query count the desk-scale identities are asserted for.

The field laws are checked on the index tables every other layer computes
with.  FieldElement sums and products are held to add_rows() and mul_rows()
on all q^2 pairs, and traces and characters to trace_values() and
character_values() on every element; the simulator's trace_products() and
trace_characters() are held to those tables, and the unit, negation and
inverse laws stay per element.  The tables are then checked, vectorised,
for the ring laws over all q^3 triples and for trace additivity and
character multiplicativity over all q^2 pairs.
"""

import functools
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import census as census_mod
from . import complexity, simulator
from .domain import (build_monomial_domain, build_vandermonde_domain, flat_to_rows,
                     read_domain_file, rows_to_flat, vector_from_flat,
                     write_domain_file, VectorFq)
from .errors import ContractError, QvintError
from .field import (character_orthogonality_check, parse_field_spec,
                    _is_irreducible)

# (q, degree, query counts) for Vandermonde instances; every census the
# suite needs is enumerated once and shared across checks.
VANDERMONDE_GRID = (
    (3, 1, (1, 2)),
    (4, 1, (1, 2)),
    (5, 1, (1, 2)),
    (5, 3, (1, 2, 3)),
    (7, 3, (1, 2)),
)
MONOMIAL_GRID = ((3, 2, 2, (1,)),)

CHECK_FIELDS = (2, 3, 4, 5, 7, 8, 9)

PHASE_CHECK_FIELDS = (3, 4, 5)

# Full secret sweeps are exhaustive up to this codomain size; above it a
# fixed five-point selection is used instead.
SWEEP_LIMIT = 729

SAMPLING_SEED = 20250815
SAMPLING_TRIALS = 100_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _secret_indices(codomain_size):
    if codomain_size <= SWEEP_LIMIT:
        return range(codomain_size)
    return sorted({0, 1, codomain_size // 2, codomain_size - 2, codomain_size - 1})


def _first_break(params, holds):
    """The elements at the first index tuple where the boolean table holds is False."""
    return ", ".join(repr(params.from_index(int(i))) for i in np.argwhere(~holds)[0])


def _point(domain, flat):
    """The index tuple of the point of the domain's GF(q)^n at a flat index."""
    return tuple(flat_to_rows(flat, domain.params.q, domain.n).tolist())


def _check_field_axioms(field, q):
    params = field(q)
    elems = params.elements()
    add, mul = params.add_rows(), params.mul_rows()
    zero, one = params.zero(), params.one()
    for a in elems:
        if a + zero != a or a * one != a or a + (-a) != zero:
            return False, f"unit/negation law broke at {a!r}"
        if not a.is_zero() and a * a.inverse() != one:
            return False, f"inverse law broke at {a!r}"
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if (a + b).index() != add[i, j] or (a * b).index() != mul[i, j]:
                return False, f"element arithmetic differs from the tables at {a!r}, {b!r}"
    x, y, z = np.ix_(*(np.arange(q),) * 3)
    laws = (
        ("commutativity", (add == add.T) & (mul == mul.T)),
        ("associativity", (add[add[x, y], z] == add[x, add[y, z]])
                          & (mul[mul[x, y], z] == mul[x, mul[y, z]])),
        ("distributivity", mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]),
    )
    for law, holds in laws:
        if not holds.all():
            return False, f"{law} broke at {_first_break(params, holds)}"
    return True, f"ring laws exhaustive over {q}^3 triples"


def _check_trace_character(field, q):
    params = field(q)
    add = params.add_rows()
    traces = params.trace_values()
    chars = params.character_values()
    for i, a in enumerate(params.elements()):
        if a.trace() != traces[i] or abs(a.character() - chars[i]) > 1e-9:
            return False, f"trace or character of {a!r} differs from the tables"
    # The simulator's phases: sums of Tr(a * b) entries, then trace_characters().
    products = params.trace_products() == traces[params.mul_rows()]
    if not products.all():
        return False, f"trace product table broke at {_first_break(params, products)}"
    if not np.array_equal(params.trace_characters()[traces], chars):
        return False, "trace characters differ from the character values"
    additive = traces[add] == (traces[:, None] + traces) % params.p
    if not additive.all():
        return False, f"trace additivity broke at {_first_break(params, additive)}"
    if not np.all(np.abs(chars[add] - np.outer(chars, chars)) <= 1e-9):
        return False, "character multiplicativity broke"
    if not character_orthogonality_check(params):
        return False, "orthogonality relation failed"
    return True, "trace linear, character multiplicative, orthogonality exact"


def _check_modulus(field, q):
    params = field(q)
    if params.r == 1:
        return True, "prime field, nothing to factor"
    ok = _is_irreducible(params.modulus, params.p)
    detail = f"modulus {params.modulus} over GF({params.p})"
    return ok, detail if ok else detail + " is reducible"


def _check_census_totals(k, census_of):
    census = census_of(k)
    domain = census.domain
    expected = (domain.size * domain.params.q) ** k
    total = int(census.dense.sum())
    v_good, y_good = census_mod.good_set_sizes(domain, k)
    good_total = int(census.dense_good.sum())
    if total != expected:
        return False, f"count total {total} != {expected}"
    if good_total != v_good * y_good:
        return False, f"good total {good_total} != {v_good * y_good}"
    if census.mean() * census.codomain_size != expected:
        return False, "mean identity broke"
    if k >= 1 and census.dense[0] == 0:
        return False, "image misses the zero target"
    # The commands' engine must reproduce the walk exactly.
    transform = census_mod.transform_census(domain, k)
    if not (np.array_equal(transform.dense, census.dense)
            and np.array_equal(transform.dense_good, census.dense_good)):
        return False, "transform census differs from the walk"
    return True, f"totals {total} and {good_total} exact"


def _check_dichotomy(k, census_of):
    census = census_of(k)
    domain = census.domain
    report = domain.independence()
    if report.status != "verified" or 2 * k > domain.n:
        return (True, f"skipped: hypothesis not met "
                      f"(independence {report.status}, 2k={2 * k}, n={domain.n})")
    allowed = {0, math.factorial(k)}
    bad = np.flatnonzero(~np.isin(census.dense_good, list(allowed)))
    if bad.size:
        return False, f"good count outside {allowed} at {_point(domain, bad[0])}"
    bound = census_mod.image_size_lower_bound(domain, k)
    if census.image_size < bound:
        return False, f"image {census.image_size} below bound {bound}"
    return True, f"good counts in {{0, {math.factorial(k)}}}, image {census.image_size} >= {bound}"


def _check_second_moment(k, census_of, direct_tally):
    census = census_of(k)
    check = census_mod.second_moment_identity_check(census.domain, k, census=census)
    # The right side reads N(t) off the census; hold it to field dot products,
    # as histograms: on extension fields the transform's N(t) is relabelled.
    direct = np.array_equal(census.hit_tally, direct_tally())
    detail = "" if direct else ", N(t) tally differs from the direct count"
    return check.equal and direct, f"lhs {check.lhs} vs rhs {check.rhs}{detail}"


def _check_chebyshev(k, census_of):
    census = census_of(k)
    bound = census_mod.chebyshev_zero_bound(census.domain, k, census=census)
    observed = census.zero_count_fraction()
    return observed <= bound, f"observed {observed} vs bound {bound}"


def _check_monotonicity(ks, census_of):
    # The image can only grow with k (pad any pre-image with weight 0), so
    # each enumerated image must contain the previous one; the seed set {0}
    # covers the k=0 image.
    previous = np.arange(census_of(ks[0]).codomain_size) == 0
    for k in ks:
        current = census_of(k).dense != 0
        missing = np.flatnonzero(previous & ~current)
        if missing.size:
            return False, f"target {_point(census_of(k).domain, missing[0])} fell out at k={k}"
        previous = current
    return True, f"images nest across k = {list(ks)}"


def _check_simulator(k, census_of):
    """Pipeline equivalence and exact success probability, in that order,
    from one batched secret sweep."""
    census = census_of(k)
    domain = census.domain
    image = census_mod.image_set(census)
    transversal = census.transversal
    params = domain.params
    codomain = census.codomain_size
    expected = census.success_probability()
    keys = rows_to_flat(transversal.keys, params.q)
    if not np.array_equal(np.sort(keys), rows_to_flat(image.keys, params.q)):
        raise ContractError("transversal support is not the image")
    # Each amplitude is held to the sweep's Fourier phase at its own key.
    scale = 1.0 / math.sqrt(image.size)
    worst_amp = 0.0
    probs = []
    argmax_ok = True
    check_argmax = 2 * image.size > codomain
    for secrets, amplitudes, fourier, success in simulator._sweep(
            domain, k, transversal, _secret_indices(codomain)):
        worst_amp = max(worst_amp, float(np.abs(amplitudes - fourier * scale).max()))
        probs.extend(success)
        if check_argmax:
            states = np.zeros((len(secrets), codomain), dtype=np.complex128)
            states[:, keys] = amplitudes
            outcomes = simulator._outcome_probs(params, domain.n, states).argmax(axis=1)
            argmax_ok &= np.array_equal(outcomes, rows_to_flat(secrets, params.q))
    pipeline = (worst_amp < 1e-12, f"max amplitude gap {worst_amp:.2e} over {len(probs)} secrets")
    probs = np.array(probs)
    spread = probs.max() - probs.min()
    off = np.abs(probs - float(expected)).max()
    ok = off < 1e-9 and spread < 1e-9 and argmax_ok
    detail = (f"p = {expected} ({float(expected):.6f}), max error {off:.2e}, "
              f"spread {spread:.2e}")
    if not argmax_ok:
        detail += ", argmax missed the secret"
    return pipeline, (ok, detail)


def _check_phase_query(domain_of):
    domain = domain_of()
    params = domain.params
    for flat in range(params.q ** domain.n):
        secret = vector_from_flat(params, domain.n, flat)
        if not simulator.phase_query_check(domain, secret):
            return False, f"identity broke at secret {secret!r}"
    return True, f"all {params.q ** domain.n} secrets, every domain vector"


def _check_gram_rank(k, census_of):
    census = census_of(k)
    image = census_mod.image_set(census)
    rank = simulator.state_family_rank(image)
    if rank != image.size:
        return False, f"rank {rank} != |image| {image.size}"
    achieved = census.success_probability()
    ceiling = Fraction(rank, census.codomain_size)
    if achieved != ceiling:
        return False, f"achieved {achieved} != ceiling {ceiling}"
    return True, f"rank {rank} = |image|, ceiling met with equality"


def _check_sampling(census_of):
    census = census_of()
    params = census.domain.params
    secret = VectorFq.from_index_tuple(params, (1, 1))
    state = simulator.run_algorithm(census.domain, 1, census.transversal, secret)
    dist = simulator.outcome_distribution(state)
    first = simulator.sample_outcomes(dist, SAMPLING_TRIALS, seed=SAMPLING_SEED)
    second = simulator.sample_outcomes(dist, SAMPLING_TRIALS, seed=SAMPLING_SEED)
    if not np.array_equal(first.tallies, second.tallies):
        return False, "same seed produced different counts"
    p = census.success_probability()
    tol = 3 * math.sqrt(float(p) * (1 - float(p)) / SAMPLING_TRIALS)
    freq = first.frequency_of(secret)
    ok = abs(freq - float(p)) <= tol
    return ok, f"frequency {freq:.5f} vs {float(p):.5f} within {tol:.5f}, seed-stable"


def _check_query_formulas():
    qs = (5, 7, 11, 13)
    for q in qs:
        for d in range(1, q):
            n = d + 1
            if d % 2 == 1:
                got = complexity.plan_bounded_error(n, q, q).k
                want = (d + 1) // 2
            else:
                got = complexity.plan_high_probability(n, q, q, 1).k
                want = d // 2 + 1
            if got != want:
                return False, f"(q={q}, d={d}) planned {got}, expected {want}"
    pinned = (
        (complexity.plan_bounded_error(4, 5, 5).k, 2),
        (complexity.plan_high_probability(5, 7, 7, 1).k, 3),
        (complexity.plan_high_probability(6, 3, 9, 5).k, 7),
    )
    for got, want in pinned:
        if got != want:
            return False, f"pinned value {got} != {want}"
    return True, f"parity rules hold for q in {qs}, all d < q"


def _check_multivariate():
    cases = (
        (2, 2, 3, 6, 1, 32),
        (2, 3, 3, 10, 2, 50),
        (3, 2, 2, 10, 1, 44),
    )
    for m, d, q, n_want, lo_want, hi_want in cases:
        n = math.comb(m + d, d)
        if n != n_want:
            return False, f"n({m},{d}) = {n}, expected {n_want}"
        lo, hi = complexity.multivariate_query_bounds(n, q, m)
        if (lo, hi) != (lo_want, hi_want):
            return False, f"bounds ({lo},{hi}) != ({lo_want},{hi_want})"
        reference = Fraction(d * n, m + d)
        if not lo <= reference <= hi:
            return False, f"reference {reference} outside [{lo},{hi}]"
    for m in range(1, 5):
        for d in range(1, 5):
            plan = complexity.univariate_reduction(m, d)
            if plan.reduced_degree != sum(d ** j for j in range(1, m + 1)):
                return False, f"reduced degree wrong at m={m}, d={d}"
    if complexity.univariate_reduction(3, 2).reduced_degree != 14:
        return False, "m=3, d=2 reduced degree is not 14"
    return True, "bounds, references, and reductions all exact"


def _check_monomial_shape(domain_of):
    domain = domain_of()
    q, m = domain.params.q, 2
    closed_form = q ** m - (q - 1) ** m
    if domain.size != q ** m or domain.n != 6:
        return False, f"size {domain.size}, n {domain.n}"
    if domain.zero_touching_count() != closed_form:
        return (False, f"zero-touching {domain.zero_touching_count()} "
                       f"!= closed form {closed_form}")
    return True, f"|V| = {domain.size}, n = {domain.n}, |V_0| = {closed_form}"


def _check_domain_roundtrip(domain_of):
    domain = domain_of()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "domain.txt")
        write_domain_file(domain, path)
        back = read_domain_file(path)
    return back.same_as(domain), "write/read preserves field, length, and vectors"


def run_all() -> list:
    """Run every check; returns CheckResults in a fixed, deterministic order.

    This is the suite's one error boundary and the only place a verdict is
    named.  A package error raised by a check, or by the field, domain or
    census it fetches, fails every name that check owns and the suite goes
    on, so the names and their order are the same whatever fails.
    """
    results = []

    def run(names, check, *args):
        """One name and check's (ok, detail) verdict, or a tuple of names
        and one verdict per name from check."""
        names = (names,) if isinstance(names, str) else names
        try:
            verdicts = check(*args)
            verdicts = (verdicts,) if len(names) == 1 else verdicts
        except QvintError as exc:
            verdicts = ((False, f"{type(exc).__name__}: {exc}"),) * len(names)
        results.extend(CheckResult(name, bool(ok), detail)
                       for name, (ok, detail) in zip(names, verdicts, strict=True))

    # Fields, domains and walk censuses are built inside the boundary, each
    # once per run by the first check that needs it, so a build error fails
    # those checks' names alone.
    field = functools.cache(lambda q: parse_field_spec(str(q)))
    domain_of = functools.cache(lambda build, q, *shape: build(field(q), *shape))
    census_of = functools.cache(lambda build, q, shape, k: census_mod.enumerate_census(
        domain_of(build, q, *shape), k))
    for q in CHECK_FIELDS:
        run(f"field-axioms-q{q}", _check_field_axioms, field, q)
        run(f"trace-character-q{q}", _check_trace_character, field, q)
        run(f"modulus-irreducible-q{q}", _check_modulus, field, q)

    instances = [(f"vand-q{q}-d{d}", build_vandermonde_domain, q, (d,), ks)
                 for q, d, ks in VANDERMONDE_GRID]
    instances += [(f"mono-q{q}-m{m}-d{d}", build_monomial_domain, q, (m, d), ks)
                  for q, m, d, ks in MONOMIAL_GRID]
    gram_targets = {("vand-q3-d1", 1), ("vand-q5-d3", 2)}
    for label, build, q, shape, ks in instances:
        domain = functools.partial(domain_of, build, q, *shape)
        census_by_k = functools.partial(census_of, build, q, shape)
        # N(t) depends on the domain alone: one direct tally serves every k.
        direct_tally = functools.cache(
            lambda domain=domain: census_mod._direct_hit_tally(domain()))
        for k in ks:
            run(f"census-totals-{label}-k{k}", _check_census_totals, k, census_by_k)
            run(f"good-dichotomy-{label}-k{k}", _check_dichotomy, k, census_by_k)
            run(f"second-moment-{label}-k{k}", _check_second_moment, k, census_by_k, direct_tally)
            run(f"chebyshev-{label}-k{k}", _check_chebyshev, k, census_by_k)
            run((f"pipeline-equivalence-{label}-k{k}", f"success-probability-{label}-k{k}"),
                _check_simulator, k, census_by_k)
            if (label, k) in gram_targets:
                run(f"state-family-rank-{label}-k{k}", _check_gram_rank, k, census_by_k)
        run(f"image-monotonicity-{label}", _check_monotonicity, ks, census_by_k)

    for q in PHASE_CHECK_FIELDS:
        run(f"phase-query-q{q}", _check_phase_query,
            functools.partial(domain_of, build_vandermonde_domain, q, 1))
    run("sampling-reproducibility", _check_sampling,
        functools.partial(census_of, build_vandermonde_domain, 3, (1,), 1))
    run("query-formula-sweep", _check_query_formulas)
    run("multivariate-bounds", _check_multivariate)
    run("monomial-domain-shape", _check_monomial_shape,
        functools.partial(domain_of, build_monomial_domain, 3, 2, 2))
    run("domain-file-roundtrip", _check_domain_roundtrip,
        functools.partial(domain_of, build_vandermonde_domain, 4, 2))
    return results
