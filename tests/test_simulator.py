"""Simulator layer: exact states, measurement statistics, and rank counts.

Success probabilities are pinned to |image| / q^n values that were frozen
from the independent census enumeration.
"""

import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import draws_of, fourier_state, inner, norm, restricted_fourier_state
from qvint import errors, simulator
from qvint.census import Transversal, enumerate_census, transform_census
from qvint.domain import (Domain, VectorFq, build_vandermonde_domain, dot_rows,
                          flat_to_rows, rows_to_flat)
from qvint.errors import ContractError, ParameterError, ResourceCapError
from qvint.field import FieldParams
from qvint.simulator import (OutcomeDistribution, SampleReport, StateVector,
                             outcome_distribution, phase_query_check, run_algorithm,
                             sample_outcomes, state_family_rank, success_probability)
from qvint.verify import run_all

F3 = FieldParams(3)
F4 = FieldParams(2, 2)
F5 = FieldParams(5)

# (field, degree, k) -> frozen image size; success probability is |R|/q^n
FROZEN = {
    (3, 1, 1): 7,
    (4, 1, 1): 13,
    (5, 1, 1): 21,
    (5, 1, 2): 25,
    (5, 3, 2): 181,
}


def instance(q, d, k):
    params = F3 if q == 3 else F4 if q == 4 else F5
    dom = build_vandermonde_domain(params, d)
    census = enumerate_census(dom, k)
    trans = enumerate_census(dom, k).transversal
    return dom, census, trans


def image_of(census):
    """The census's image points as a Domain."""
    return Domain(census.domain.params, census.image_keys)


def all_secrets(params, n):
    for key in itertools.product(range(params.q), repeat=n):
        yield VectorFq.from_index_tuple(params, key)


def at(array, z):
    """The entry of a flat state-sized array at the point z."""
    return array[rows_to_flat(z.index_tuple(), z.params.q)]


class TestFourierState:
    def test_normalized_and_flat_for_zero_secret(self):
        state = fourier_state(F3, 2, VectorFq.from_index_tuple(F3, (0, 0)))
        assert abs(norm(state) - 1.0) < 1e-12
        for z in all_secrets(F3, 2):
            assert abs(at(state.amplitudes, z) - 1 / 3) < 1e-12

    def test_amplitudes_are_character_values(self):
        secret = VectorFq.from_index_tuple(F4, (2, 3))
        state = fourier_state(F4, 2, secret)
        for z in all_secrets(F4, 2):
            expected = sum(
                (s * c for s, c in zip(secret.entries, z.entries)),
                F4.zero(),
            ).character() / 4.0
            assert abs(at(state.amplitudes, z) - expected) < 1e-12

    def test_orthonormal_family(self):
        states = [fourier_state(F3, 2, s) for s in all_secrets(F3, 2)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert abs(inner(a, b) - want) < 1e-12

    def test_secret_validation(self):
        with pytest.raises(ParameterError):
            fourier_state(F3, 2, VectorFq.from_index_tuple(F3, (1,)))
        with pytest.raises(ParameterError):
            fourier_state(F3, 2, VectorFq.from_index_tuple(F5, (1, 2)))
        with pytest.raises(ParameterError):
            fourier_state(F3, 2, (1, 2))

    def test_amplitude_cap(self, monkeypatch):
        monkeypatch.setattr(simulator, "DEFAULT_MAX_AMPLITUDES", 8)
        secret = VectorFq.from_index_tuple(F3, (0,) * 2)
        with pytest.raises(ResourceCapError, match="cap is 8"):
            fourier_state(F3, 2, secret)

    def test_inner_needs_matching_shape(self):
        a = fourier_state(F3, 2, VectorFq.from_index_tuple(F3, (0, 0)))
        b = fourier_state(F5, 2, VectorFq.from_index_tuple(F5, (0, 0)))
        with pytest.raises(ParameterError):
            inner(a, b)


class TestRunAlgorithm:
    @pytest.mark.parametrize("q,d,k", sorted(FROZEN))
    def test_matches_restricted_fourier_state(self, q, d, k):
        dom, census, trans = instance(q, d, k)
        image = image_of(census)
        for secret in itertools.islice(all_secrets(dom.params, dom.n), 12):
            ran = run_algorithm(trans, secret)
            direct = restricted_fourier_state(image, secret)
            assert np.max(np.abs(ran.amplitudes - direct.amplitudes)) < 1e-12

    @pytest.mark.parametrize("q,d,k", sorted(FROZEN))
    def test_unit_norm(self, q, d, k):
        dom, _, trans = instance(q, d, k)
        secret = next(all_secrets(dom.params, dom.n))
        state = run_algorithm(trans, secret)
        assert abs(norm(state) - 1.0) < 1e-12

    @pytest.mark.parametrize("q,d,k", sorted(FROZEN))
    def test_success_probability_is_image_fraction(self, q, d, k):
        dom, census, trans = instance(q, d, k)
        expected = float(census.success_probability())
        assert census.success_probability() == \
            Fraction(FROZEN[(q, d, k)], dom.params.q ** dom.n)
        for secret in all_secrets(dom.params, dom.n):
            state = run_algorithm(trans, secret)
            assert abs(success_probability(state, secret) - expected) < 1e-9

    def test_support_is_exactly_the_image(self):
        _, census, trans = instance(3, 1, 1)
        secret = VectorFq.from_index_tuple(F3, (1, 2))
        state = run_algorithm(trans, secret)
        for z in all_secrets(F3, 2):
            amp = at(state.amplitudes, z)
            if at(census.dense, z):
                assert abs(abs(amp) - 1 / math.sqrt(7)) < 1e-12
            else:
                assert amp == 0

    def test_success_probability_is_a_python_float(self):
        _, _, trans = instance(5, 1, 1)
        secret = VectorFq.from_index_tuple(F5, (3, 4))
        state = run_algorithm(trans, secret)
        probability = success_probability(state, secret)
        assert type(probability) is float
        assert abs(probability - 21 / 25) < 1e-12
        reference = abs(inner(fourier_state(F5, 2, secret), state)) ** 2
        assert abs(probability - reference) < 1e-12

    def test_k0_gives_uniform_success(self):
        dom = build_vandermonde_domain(F3, 1)
        trans = enumerate_census(dom, 0).transversal
        secret = VectorFq.from_index_tuple(F3, (2, 1))
        state = run_algorithm(trans, secret)
        assert abs(success_probability(state, secret) - 1 / 9) < 1e-12

    def test_a_non_integer_secret_coordinate_is_refused(self):
        # A float index names no element; numpy would fail on it much later.
        with pytest.raises(ParameterError, match="element index must be an integer"):
            VectorFq.from_index_tuple(F3, (1.5, 0))

    # The Transversal derives its keys from its pre-images and checks them
    # once, when it is built, so a broken relabeling never reaches run_algorithm.
    def test_target_hit_twice_is_a_contract_error(self):
        _, _, trans = instance(3, 1, 1)
        rows = [0, 1, 1, 2]
        with pytest.raises(ContractError, match="same target twice"):
            dataclasses.replace(trans, preimages=trans.preimages[rows])

    def test_twins_far_apart_are_found_on_flat_keys(self):
        _, _, trans = instance(5, 3, 2)
        for rows in ([5, 0, 1, 2, 3, 4, 5], [trans.size - 1, *range(trans.size)]):
            with pytest.raises(ContractError, match="same target twice"):
                dataclasses.replace(trans, preimages=trans.preimages[rows])

    def test_keys_wider_than_a_flat_index(self):
        # GF(2)^70 has more points than an int64 flat index can number, so
        # the repeated-key check must compare rows, not flat indices.
        dom = build_vandermonde_domain(FieldParams(2), 69)
        trans = Transversal(dom, 1, np.arange(dom.size)[:, None] * 2 + 1)  # weight 1
        assert np.array_equal(trans.keys, dom.indices)
        with pytest.raises(ContractError, match="same target twice"):
            dataclasses.replace(trans, preimages=trans.preimages[[0, 1, 1]])

    def test_checked_copy_is_read_only_and_runs(self):
        _, _, trans = instance(3, 1, 1)
        copy = dataclasses.replace(trans, preimages=trans.preimages.copy())
        for array in (copy.keys, copy.preimages):
            with pytest.raises(ValueError):
                array[0, 0] = 1
        secret = VectorFq.from_index_tuple(F3, (1, 2))
        assert (run_algorithm(copy, secret).amplitudes.tobytes()
                == run_algorithm(trans, secret).amplitudes.tobytes())

    def test_empty_image_rejected(self):
        # An image is a Domain, which refuses an empty family.
        with pytest.raises(ParameterError, match="a domain needs at least one vector"):
            restricted_fourier_state(Domain(F3, np.empty((0, 2), np.intp)),
                                     VectorFq.from_index_tuple(F3, (0, 0)))

    def test_negative_preimage_index_is_refused(self):
        # numpy would read index -1 as the last (vector, weight) pair, both
        # when the keys are derived and in the query phases.
        _, _, trans = instance(3, 1, 1)
        preimages = np.where(trans.preimages == 8, -1, trans.preimages)
        with pytest.raises(ParameterError, match=re.escape("indices must lie in [0, 9)")):
            dataclasses.replace(trans, preimages=preimages)

    def test_preimage_index_past_the_lines_is_refused(self):
        dom, _, trans = instance(3, 1, 1)
        preimages = trans.preimages.copy()
        preimages[-1] = dom.size * 3
        bound = re.escape(f"indices must lie in [0, {dom.size * 3})")
        with pytest.raises(ParameterError, match=bound):
            dataclasses.replace(trans, preimages=preimages)


class TestBatchedSweep:
    # GF(9) d=2 k=2 sweeps 729 secrets in blocks of 22, so its last block is
    # a partial one.
    @pytest.mark.parametrize("params,d,k", ((F3, 1, 1), (F4, 2, 2), (FieldParams(3, 2), 2, 2)),
                             ids=("gf3-d1-k1", "gf4-d2-k2", "gf9-d2-k2"))
    def test_equals_the_one_secret_path_bit_for_bit(self, params, d, k):
        dom = build_vandermonde_domain(params, d)
        trans = enumerate_census(dom, k).transversal
        flats = range(params.q ** dom.n)
        blocks = list(simulator._sweep(trans, flats))
        step = errors.BLOCK_ENTRIES // trans.size
        assert [len(secrets) for secrets, _, _, _ in blocks] == [
            min(step, len(flats) - start) for start in range(0, len(flats), step)]
        assert all(amplitudes.flags.c_contiguous for _, amplitudes, _, _ in blocks)
        keys = rows_to_flat(trans.keys, params.q)
        for secrets, amplitudes, fourier, success in blocks:
            for row, amps, phases, probability in zip(secrets, amplitudes, fourier, success,
                                                      strict=True):
                secret = VectorFq.from_index_tuple(params, row.tolist())
                state = run_algorithm(trans, secret)
                assert amps.tobytes() == state.amplitudes[keys].tobytes()
                assert probability.hex() == success_probability(state, secret).hex()
                # success_probability's phases, on the state's support.
                reference = params.character_values()[dot_rows(params, row, trans.keys)]
                assert phases.tobytes() == reference.tobytes()
        assert np.array_equal(np.concatenate([rows_to_flat(b[0], params.q) for b in blocks]),
                              flats)

    def test_a_corrupt_phase_lookup_fails_pipeline_equivalence(self, monkeypatch):
        real = simulator._query_phases

        def misplaced(*args):
            return np.roll(real(*args), 1, axis=1)

        monkeypatch.setattr(simulator, "_query_phases", misplaced)
        pipeline = [r for r in run_all() if r.name.startswith("pipeline-equivalence-")]
        assert len(pipeline) == 12
        for result in pipeline:
            assert not result.ok
            gap = re.fullmatch(r"max amplitude gap (\S+) over \d+ secrets", result.detail)
            assert float(gap.group(1)) > 0

    def test_success_floats_are_the_per_row_vdot_rule(self, monkeypatch):
        # Five secrets per block, so every block but the last is a batch.
        params = FieldParams(3, 2)
        dom = build_vandermonde_domain(params, 2)
        trans = enumerate_census(dom, 2).transversal
        monkeypatch.setattr(errors, "BLOCK_ENTRIES", 5 * trans.size)
        blocks = list(simulator._sweep(trans, range(params.q ** dom.n)))
        assert len(blocks) == 146 and {len(secrets) for secrets, _, _, _ in blocks} == {5, 4}
        for secrets, amplitudes, fourier, success in blocks:
            for row, amps, phases, probability in zip(secrets, amplitudes, fourier, success,
                                                      strict=True):
                # One np.vdot per row, then the scalar abs and ** 2.
                want = (abs(np.vdot(phases, amps)) ** 2 / params.q ** dom.n).hex()
                assert probability.hex() == want
                secret = VectorFq.from_index_tuple(params, row.tolist())
                assert success_probability(run_algorithm(trans, secret), secret).hex() == want

    @pytest.mark.parametrize("rows,size", ((1, 1), (7, 300), (3, 20000)))
    def test_the_success_kernel_is_the_per_row_vdot_rule_on_any_rows(self, rows, size):
        # Rows of arbitrary phases and amplitudes, where numpy's array abs
        # and square would differ from the scalar rule in the last bit.
        rng = np.random.default_rng(rows * size)
        fourier = np.exp(2j * np.pi * rng.random((rows, size)))
        amplitudes = (rng.random((rows, size)) + 1j * rng.random((rows, size))) / math.sqrt(size)
        got = simulator._success(F3, 4, fourier, amplitudes)
        want = [float(abs(np.vdot(f, a)) ** 2 / 81) for f, a in zip(fourier, amplitudes)]
        assert [value.hex() for value in got] == [value.hex() for value in want]
        assert all(type(value) is float for value in got)

    def test_blocks_also_bound_the_kickbacks(self, monkeypatch):
        # Six multiples of one vector of GF(7): 42 (vector, weight) pairs but
        # a 7-point image, so the kickbacks, not the amplitudes, set the block.
        params = FieldParams(7)
        dom = Domain(params, np.arange(1, 7)[:, None], "collinear")
        trans = transform_census(dom, 1).transversal
        assert trans.size == 7
        monkeypatch.setattr(errors, "BLOCK_ENTRIES", 84)
        blocks = list(simulator._sweep(trans, range(7)))
        assert [len(secrets) for secrets, _, _, _ in blocks] == [2, 2, 2, 1]
        keys = rows_to_flat(trans.keys, 7)
        for secrets, amplitudes, _, _ in blocks:
            for row, amps in zip(secrets, amplitudes, strict=True):
                state = run_algorithm(trans, VectorFq.from_index_tuple(params, row.tolist()))
                assert amps.tobytes() == state.amplitudes[keys].tobytes()


# Prime and extension fields of characteristic 2, 3 and 5.
KERNEL_FIELDS = {"gf2": FieldParams(2), "gf3": F3, "gf4": F4, "gf8": FieldParams(2, 3),
                 "gf9": FieldParams(3, 2), "gf25": FieldParams(5, 2)}


def fourier_phases(params, secrets, keys):
    """The kickback kernel with the secrets as the answers, at the keys'
    pre-images in the coordinate basis: the Fourier phases e(s . z)."""
    return simulator._phases(params, secrets, simulator._coordinates(params, keys))


class TestPhaseKernels:
    """The phases as sums of traces of products, trace_values()[mul(a, b)],
    held to the rule they replace: character_values() at field dot products
    from dot_rows."""

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("name", KERNEL_FIELDS)
    def test_equal_the_dot_product_rule_bit_for_bit(self, name, k):
        params = KERNEL_FIELDS[name]
        dom = build_vandermonde_domain(params, 1)
        trans = transform_census(dom, k).transversal
        every = flat_to_rows(np.arange(params.q ** dom.n), params.q, dom.n)
        for secrets in (every, every[-1:]):
            answers = dot_rows(params, secrets[:, None, :], dom.indices)
            positions, weights = np.divmod(trans.preimages, params.q)
            queries = params.character_values()[
                dot_rows(params, weights, answers[:, positions])]
            fourier = params.character_values()[dot_rows(params, secrets[:, None, :], trans.keys)]
            for got, want in ((simulator._query_phases(dom, secrets, trans.preimages.T), queries),
                              (fourier_phases(params, secrets, trans.keys), fourier)):
                assert got.shape == (len(secrets), trans.size)
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ("gf8", "gf25"))
    def test_fourier_phases_at_keys_of_three_coordinates(self, name):
        params = KERNEL_FIELDS[name]
        trans = transform_census(build_vandermonde_domain(params, 2), 2).transversal
        assert trans.keys.shape[1] == 3
        # About 64 secrets spread over the space, and the last one alone.
        spread = flat_to_rows(np.arange(0, params.q ** 3, params.q ** 3 // 64), params.q, 3)
        for secrets in (spread, flat_to_rows(np.array([params.q ** 3 - 1]), params.q, 3)):
            want = params.character_values()[dot_rows(params, secrets[:, None, :], trans.keys)]
            got = fourier_phases(params, secrets, trans.keys)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


class TestOutcomeDistribution:
    def test_matches_direct_inner_products(self):
        _, _, trans = instance(3, 1, 1)
        secret = VectorFq.from_index_tuple(F3, (2, 1))
        state = run_algorithm(trans, secret)
        dist = outcome_distribution(state)
        for t in all_secrets(F3, 2):
            direct = abs(inner(fourier_state(F3, 2, t), state)) ** 2
            assert abs(at(dist.probs, t) - direct) < 1e-12

    def test_sums_to_one(self):
        _, _, trans = instance(5, 3, 2)
        secret = VectorFq.from_index_tuple(F5, (1, 2, 3, 4))
        dist = outcome_distribution(run_algorithm(trans, secret))
        total = sum(at(dist.probs, t) for t in all_secrets(F5, 4))
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("q,d,k", ((3, 1, 1), (4, 1, 1), (5, 1, 1)))
    def test_argmax_recovers_secret_when_majority(self, q, d, k):
        dom, census, trans = instance(q, d, k)
        assert 2 * census.image_size > census.codomain_size
        for secret in all_secrets(dom.params, dom.n):
            dist = outcome_distribution(run_algorithm(trans, secret))
            assert np.argmax(dist.probs) == rows_to_flat(secret.index_tuple(), dom.params.q)

    @pytest.mark.parametrize("batch", (1, 7))
    @pytest.mark.parametrize("name,n", [(name, n) for name in KERNEL_FIELDS for n in range(1, 5)
                                        if KERNEL_FIELDS[name].q ** n <= 4096])
    def test_batched_rows_equal_the_single_state_path_and_the_kronecker_kernel(
            self, name, n, batch):
        params = KERNEL_FIELDS[name]
        size = params.q ** n
        rng = np.random.default_rng(size + batch)
        states = rng.normal(size=(batch, size)) + 1j * rng.normal(size=(batch, size))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        probs = simulator._outcome_probs(params, n, states)
        for row, amplitudes in zip(probs, states, strict=True):
            single = outcome_distribution(StateVector(params, n, amplitudes)).probs
            assert row.tobytes() == single.tobytes()
        # Canonical order puts the first coordinate's factor leftmost.
        kernel = np.ones((1, 1))
        for _ in range(n):
            kernel = np.kron(kernel, params.character_table().conj())
        direct = np.abs(states @ kernel.T) ** 2 / size
        assert np.abs(probs - direct).max() < 1e-12

    def test_top_breaks_ties_canonically(self):
        probs = np.array([0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.0])
        dist = OutcomeDistribution(params=F3, n=2, probs=probs)
        top = dist.top(5)
        assert [(v.index_tuple(), p) for v, p in top] == [
            ((0, 0), 0.2), ((0, 1), 0.2), ((0, 2), 0.2),
            ((1, 0), 0.1), ((1, 1), 0.1),
        ]

    def test_top_ranks_near_ties_canonically(self):
        # Equal exact probabilities whose floats differ in the last bits, as
        # rounding in the transform leaves them, rank in canonical order; the
        # listed floats are the distribution's own.
        noise = np.array([3, -2, 1, 0, -1, 2, 0, 0, 0]) * 2.0 ** -55
        probs = np.array([1 / 9] * 9) + noise
        dist = OutcomeDistribution(params=F3, n=2, probs=probs)
        top = dist.top(9)
        assert [v.index_tuple() for v, _ in top] == [(a, b) for a in range(3) for b in range(3)]
        assert [p for _, p in top] == probs.tolist()
        # A gap the 12-decimal rounding keeps still decides the order.
        probs = np.array([1 / 9 - 1e-10] + [1 / 9] * 7 + [1 / 9 + 7e-10])
        top = OutcomeDistribution(params=F3, n=2, probs=probs).top(2)
        assert [v.index_tuple() for v, _ in top] == [(2, 2), (0, 1)]

    def test_unnormalized_state_is_a_contract_error(self):
        state = fourier_state(F3, 2, VectorFq.from_index_tuple(F3, (0, 0)))
        with pytest.raises(ContractError):
            outcome_distribution(StateVector(F3, 2, state.amplitudes * 2.0))


class TestResultTypes:
    """StateVector, OutcomeDistribution and SampleReport cannot be changed
    after construction, and their arrays hold exactly q^n entries."""

    def state(self):
        _, _, trans = instance(3, 1, 1)
        return run_algorithm(trans, VectorFq.from_index_tuple(F3, (1, 1)))

    def test_sample_counts_are_read_only(self):
        secret = VectorFq.from_index_tuple(F3, (1, 1))
        report = sample_outcomes(outcome_distribution(self.state()), 100, seed=3)
        before = report.frequency_of(secret)
        with pytest.raises(ValueError, match="read-only"):
            report.tallies[4] = 999  # outcome (1, 1)
        assert report.frequency_of(secret) == before <= 1
        # The report holds a copy: the caller's array can change, the report not.
        given = np.array([2, 0, 0])
        built = SampleReport(F3, 1, given)
        given[0] = 5
        assert built.tallies.tolist() == [2, 0, 0] and built.tallies.dtype == np.int64

    def test_probabilities_are_read_only(self):
        dist = outcome_distribution(self.state())
        assert abs(dist.probs[4] - 7 / 9) < 1e-12  # outcome (1, 1)
        with pytest.raises(ValueError, match="read-only"):
            dist.probs[:] = 0
        assert draws_of(sample_outcomes(dist, 10, seed=1)) != {(0, 0): 10}

    def test_amplitudes_are_a_read_only_copy(self):
        amplitudes = self.state().amplitudes.copy()
        state = StateVector(F3, 2, amplitudes)
        amplitudes[:] = 0
        assert np.abs(state.amplitudes).sum() > 0
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 1

    def test_wrong_length_arrays_are_refused(self):
        with pytest.raises(ParameterError, match=r"GF\(3\)\^2 needs 9 entries"):
            outcome_distribution(StateVector(FieldParams(3), 2, np.zeros(3)))
        with pytest.raises(ParameterError, match=r"GF\(3\)\^1 needs 3 entries"):
            OutcomeDistribution(FieldParams(3), 1, np.array([.5, .5]))
        with pytest.raises(ParameterError, match="needs 9 entries"):
            StateVector(F3, 2, np.ones((3, 3)) / 3)
        with pytest.raises(ParameterError, match="vector length must be an integer >= 0"):
            OutcomeDistribution(F3, -1, np.ones(1))

    @pytest.mark.parametrize("probs", ([0.1, 0.1, 0.1], [2, -1, 0], [0.5, 0.5, np.nan],
                                       [np.inf, 0, 0]),
                             ids=("sum-off-one", "negative", "nan", "inf"))
    def test_probabilities_must_be_a_distribution(self, probs):
        # Sampling would draw from them: [0.1] * 3 put 820 of 1000 draws last.
        with pytest.raises(ParameterError, match="must be >= 0 and sum to 1, got sum"):
            OutcomeDistribution(F3, 1, probs)

    def test_zero_length_space_has_one_point(self):
        dist = OutcomeDistribution(F3, 0, [1.0])
        assert dist.probs.tolist() == [1.0] and not dist.probs.flags.writeable
        assert draws_of(sample_outcomes(dist, 4, seed=0)) == {(): 4}

    @pytest.mark.parametrize("count", (-1, True, 2.5))
    def test_top_takes_a_plain_count(self, count):
        dist = outcome_distribution(self.state())
        report = sample_outcomes(dist, 10, seed=1)
        for value in (dist, report):
            with pytest.raises(ParameterError, match="count must be an integer >= 0"):
                value.top(count)
            assert value.top(0) == []


class TestSampling:
    def test_same_seed_same_counts(self):
        _, _, trans = instance(3, 1, 1)
        secret = VectorFq.from_index_tuple(F3, (1, 2))
        dist = outcome_distribution(run_algorithm(trans, secret))
        a = sample_outcomes(dist, 2000, seed=20250815)
        b = sample_outcomes(dist, 2000, seed=20250815)
        assert np.array_equal(a.tallies, b.tallies)
        assert a.tallies.sum() == 2000

    def test_within_three_sigma(self):
        _, _, trans = instance(3, 1, 1)
        secret = VectorFq.from_index_tuple(F3, (1, 2))
        dist = outcome_distribution(run_algorithm(trans, secret))
        trials = 100_000
        report = sample_outcomes(dist, trials, seed=20250815)
        p = float(at(dist.probs, secret))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(report.frequency_of(secret) - p) <= 3 * sigma

    def test_unseen_outcome_has_zero_frequency(self):
        probs = np.zeros(9)
        probs[0] = 1.0
        dist = OutcomeDistribution(params=F3, n=2, probs=probs)
        report = sample_outcomes(dist, 50, seed=7)
        assert draws_of(report) == {(0, 0): 50}
        assert report.frequency_of(VectorFq.from_index_tuple(F3, (1, 1))) == 0

    def test_top_lists_observed_outcomes_heaviest_first(self):
        # Ties in canonical order, as OutcomeDistribution.top lists them;
        # outcomes never drawn are left out.
        report = SampleReport(F3, 2, [0, 3, 0, 5, 3, 0, 1, 0, 0])
        assert [(v.index_tuple(), draws) for v, draws in report.top(5)] == [
            ((1, 0), 5), ((0, 1), 3), ((1, 1), 3), ((2, 0), 1)]
        assert all(type(draws) is int for _, draws in report.top(5))
        assert [v.index_tuple() for v, _ in report.top(2)] == [(1, 0), (0, 1)]

    @pytest.mark.parametrize("t", (VectorFq.from_index_tuple(F5, (1, 1)),
                                   VectorFq.from_index_tuple(F3, (1, 1, 1)), (1, 1)),
                             ids=("field", "length", "tuple"))
    def test_frequency_of_another_space_is_a_parameter_error(self, t):
        # A vector the report has no outcome for is refused, not counted 0.
        report = SampleReport(F3, 2, [2] + [0] * 8)
        with pytest.raises(ParameterError, match="secret"):
            report.frequency_of(t)
        assert report.frequency_of(VectorFq.from_index_tuple(F3, (0, 0))) == 1.0

    def test_trials_is_the_sum_of_the_tallies(self):
        report = SampleReport(F3, 1, [5, 0, 0])
        assert report.trials == 5 and type(report.trials) is int
        assert report.frequency_of(VectorFq.from_index_tuple(F3, (0,))) == 1.0
        # A report is its tallies: it takes no trial count and keeps no seed.
        assert [f.name for f in dataclasses.fields(SampleReport)] == ["params", "n", "tallies"]
        for extra in ({"trials": 2}, {"seed": 0}):
            with pytest.raises(TypeError):
                SampleReport(F3, 1, [5, 0, 0], **extra)

    def test_trials_does_not_wrap(self):
        # Two tallies of 2^62 sum past int64, which would wrap to -2^63.
        report = SampleReport(F3, 1, [2 ** 62, 2 ** 62, 0])
        assert report.trials == 2 ** 63
        assert report.frequency_of(VectorFq.from_index_tuple(F3, (0,))) == 0.5

    @pytest.mark.parametrize("tallies", ([5, -1, 0], [0, 0, 0]), ids=("negative", "no-draws"))
    def test_tallies_must_be_draws(self, tallies):
        # frequency_of could otherwise exceed 1 or divide by zero.
        with pytest.raises(ParameterError, match="tallies must be >= 0 with at least one draw"):
            SampleReport(F3, 1, tallies)

    def test_trials_validation(self):
        _, _, trans = instance(3, 1, 1)
        dist = outcome_distribution(
            run_algorithm(trans, VectorFq.from_index_tuple(F3, (0, 0))))
        with pytest.raises(ParameterError):
            sample_outcomes(dist, 0, seed=1)
        with pytest.raises(ParameterError):
            sample_outcomes(dist, 1.5, seed=1)
        # A bool is an int to isinstance, but not a trial count.
        with pytest.raises(ParameterError):
            sample_outcomes(dist, True, seed=1)

    def test_negative_seed_is_a_parameter_error(self):
        _, _, trans = instance(3, 1, 1)
        dist = outcome_distribution(
            run_algorithm(trans, VectorFq.from_index_tuple(F3, (0, 0))))
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            sample_outcomes(dist, 5, seed=-1)

    @pytest.mark.parametrize("seed", (1.0, True, np.int64(3), "3"))
    def test_seed_must_be_a_plain_int(self, seed):
        # random.Random would hash any of these into a seed without complaint.
        dist = OutcomeDistribution(params=F3, n=1, probs=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            sample_outcomes(dist, 5, seed=seed)

    # 1 << 16 holds all 2000 draws in one block.
    @pytest.mark.parametrize("block", (1, 7, 1 << 16))
    @pytest.mark.parametrize("seed", (0, 7, 20250815, 2 ** 40))
    def test_draws_are_the_stdlib_stream(self, monkeypatch, seed, block):
        # One outcome, so each block holds exactly BLOCK_ENTRIES draws.
        dist = OutcomeDistribution(params=F3, n=0, probs=np.ones(1))
        trials = 2000
        drawn = []
        uniforms = simulator._uniforms

        def spy(rng, count):
            drawn.append(uniforms(rng, count))
            return drawn[-1]

        monkeypatch.setattr(errors, "BLOCK_ENTRIES", block)
        monkeypatch.setattr(simulator, "_uniforms", spy)
        assert draws_of(sample_outcomes(dist, trials, seed=seed)) == {(): trials}
        assert [len(d) for d in drawn] == [min(block, trials - start)
                                           for start in range(0, trials, block)]
        stream = random.Random(seed)
        reference = np.array([stream.random() for _ in range(trials)])
        assert np.concatenate(drawn).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed", (0, 7, 20250815, 2 ** 40))
    def test_counts_equal_the_unique_reference(self, seed):
        _, _, trans = instance(5, 3, 2)
        dist = outcome_distribution(
            run_algorithm(trans, VectorFq.from_index_tuple(F5, (1, 2, 3, 4))))
        trials = 5000
        stream = random.Random(seed)
        draws = np.array([stream.random() for _ in range(trials)])
        positions = np.searchsorted(np.cumsum(dist.probs), draws, side="right")
        positions = np.minimum(positions, len(dist.probs) - 1)
        tallies = sample_outcomes(dist, trials, seed=seed).tallies
        assert tallies.tolist() == np.bincount(positions, minlength=len(dist.probs)).tolist()
        assert tallies.dtype == np.int64

    def test_counts_do_not_depend_on_the_block(self, monkeypatch):
        # Nine outcomes: blocks of 9, 9, 1000 and the default, the last one
        # holding every draw.
        _, _, trans = instance(3, 1, 1)
        dist = outcome_distribution(
            run_algorithm(trans, VectorFq.from_index_tuple(F3, (1, 2))))
        reports = []
        for block in (1, 7, 1000, errors.BLOCK_ENTRIES):
            monkeypatch.setattr(errors, "BLOCK_ENTRIES", block)
            reports.append(sample_outcomes(dist, 5001, seed=20250815).tallies)
        assert all(np.array_equal(r, reports[0]) for r in reports)
        assert reports[0].sum() == 5001


# Singular values below this fraction of the largest count as zero.
SVD_REL_TOL = 1e-8


def kronecker_rank(image):
    """Reference rank of the phase matrix of a Domain of image points: column
    z is the Kronecker product of the character table's columns z_i, rows in
    canonical secret order."""
    params = image.params
    table = params.character_table()
    columns = np.ones((1, image.size), dtype=np.complex128)
    for coord in image.indices.T:
        columns = (columns[:, None, :] * table[:, coord][None, :, :]).reshape(-1, image.size)
    singular = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(singular > SVD_REL_TOL * singular[0]))


def off_orthogonal(monkeypatch):
    """Shift every character table entry by 1e-6, so the characters fail
    the orthogonality check."""
    real = FieldParams.character_table
    monkeypatch.setattr(FieldParams, "character_table", lambda self: real(self) + 1e-6)


def swapped_characters(monkeypatch):
    """Swap two entries of row 1 of the character table of every field past
    GF(2): each row keeps its sum, but rows 1 and 2 are no longer
    orthogonal."""
    real = FieldParams.character_table

    def swapped(self):
        table = real(self)
        if self.q > 2:
            table = table.copy()
            table[1, [1, 2]] = table[1, [2, 1]]
        return table

    monkeypatch.setattr(FieldParams, "character_table", swapped)


class TestStateFamilyRank:
    @pytest.mark.parametrize("q,d,k", sorted(FROZEN))
    def test_matches_kronecker_reference(self, q, d, k):
        _, census, _ = instance(q, d, k)
        image = image_of(census)
        assert state_family_rank(image) == kronecker_rank(image) == FROZEN[(q, d, k)]

    def test_matches_kronecker_reference_gf9(self):
        image = image_of(enumerate_census(build_vandermonde_domain(FieldParams(3, 2), 1), 1))
        assert state_family_rank(image) == kronecker_rank(image) == image.size

    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    def test_any_family_ranks_as_its_distinct_points(self, q):
        # Not an image: a seeded draw of rows of GF(q)^2 with repeats, which
        # the Domain holds once each.
        params = FieldParams(*{4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q,)))
        rows = np.random.default_rng(q).integers(0, q, size=(q * q // 2 + 1, 2))
        rows = np.concatenate((rows, rows[:2]))
        family = Domain(params, rows)
        distinct = len(set(map(tuple, rows.tolist())))
        assert family.size == distinct < len(rows)
        assert state_family_rank(family) == kronecker_rank(family) == distinct

    def test_frozen_ranks(self):
        for (q, d, k), rank in (((3, 1, 1), 7), ((5, 3, 2), 181)):
            _, census, _ = instance(q, d, k)
            assert state_family_rank(image_of(census)) == rank

    def test_rank_saturates_at_full_image(self):
        _, census, _ = instance(5, 1, 2)
        assert census.image_size == 25
        assert state_family_rank(image_of(census)) == 25

    def test_single_point_image(self):
        dom = build_vandermonde_domain(F3, 1)
        census = enumerate_census(dom, 0)
        assert state_family_rank(image_of(census)) == 1

    def test_rank_never_exceeds_image_size(self):
        for q, d, k in sorted(FROZEN):
            _, census, _ = instance(q, d, k)
            image = image_of(census)
            assert state_family_rank(image) <= image.size

    def test_empty_image_rejected(self):
        with pytest.raises(ParameterError, match="a domain needs at least one vector"):
            state_family_rank(Domain(F3, np.empty((0, 2), np.intp)))

    def test_repeated_keys_count_once(self):
        image = Domain(F4, [[0, 0], [1, 3], [0, 0], [2, 1], [1, 3]])
        assert state_family_rank(image) == kronecker_rank(image) == 3

    def test_no_amplitude_cap(self):
        # 2^21 points exceed DEFAULT_MAX_AMPLITUDES, but the certificate needs
        # only the 2 x 2 character table and the Domain's three rows.
        image = Domain(FieldParams(2), np.eye(3, 21, dtype=np.intp))
        assert 2 ** 21 > simulator.DEFAULT_MAX_AMPLITUDES
        assert state_family_rank(image) == 3

    def test_flat_keys_must_fit_int64(self):
        # GF(2)^63 and GF(2)^70 have more points than an int64 flat index can
        # number; the Domain dedupes the rows column block by column block,
        # with no cap.
        for n in (63, 70):
            rows = np.eye(3, n, dtype=np.intp)
            assert state_family_rank(Domain(FieldParams(2), rows)) == 3
            assert state_family_rank(Domain(FieldParams(2), rows[[2, 0, 2, 1]])) == 3

    def test_a_kernel_off_unitary_is_a_contract_error(self, monkeypatch):
        off_orthogonal(monkeypatch)
        _, census, _ = instance(3, 1, 1)
        with pytest.raises(ContractError, match="^Fourier kernel is off unitary"):
            state_family_rank(image_of(census))

    def test_swapped_characters_with_equal_row_sums_are_a_contract_error(self, monkeypatch):
        _, census, _ = instance(3, 1, 1)
        sums = F3.character_table().sum(axis=1)
        swapped_characters(monkeypatch)
        assert np.array_equal(F3.character_table().sum(axis=1), sums)
        with pytest.raises(ContractError, match="^Fourier kernel is off unitary"):
            state_family_rank(image_of(census))

    @pytest.mark.parametrize("fault", (off_orthogonal, swapped_characters))
    def test_a_kernel_off_unitary_fails_the_verify_rank_checks(self, monkeypatch, fault):
        names = [result.name for result in run_all()]
        fault(monkeypatch)
        results = run_all()
        assert len(names) == 109
        assert [result.name for result in results] == names
        ranks = [r for r in results if r.name.startswith("state-family-rank-")]
        assert [r.name for r in ranks] == ["state-family-rank-vand-q3-d1-k1",
                                           "state-family-rank-vand-q5-d3-k2"]
        for result in ranks:
            assert not result.ok
            assert result.detail.startswith("ContractError: Fourier kernel is")


def per_shift_phase_check(domain, secret):
    """Reference for phase_query_check: one q x q conjugation per domain vector."""
    params = domain.params
    q = params.q
    fourier = params.fourier_matrix()
    chars, add, mul = params.character_values(), params.add_rows(), params.mul_rows()
    for shift in dot_rows(params, secret.index_tuple(), domain.indices).tolist():
        permutation = np.zeros((q, q), dtype=np.complex128)
        permutation[add[:, shift], np.arange(q)] = 1.0
        conjugated = fourier @ permutation @ fourier.conj().T
        if np.max(np.abs(conjugated - np.diag(chars[mul[shift]]))) > simulator.PHASE_QUERY_TOL:
            return False
    return True


def kernel_and_loop_verdicts(domain):
    """_phase_query_holds on every secret row of the domain's space, and the
    per-shift loop's verdicts on the same secrets in canonical order."""
    params = domain.params
    rows = flat_to_rows(np.arange(params.q ** domain.n), params.q, domain.n)
    holds = simulator._phase_query_holds(domain, rows)
    return holds.tolist(), [per_shift_phase_check(domain, s) for s in all_secrets(params, domain.n)]


PHASE_DOMAINS = pytest.mark.parametrize(
    "params,d", ((F4, 2), (FieldParams(3, 2), 1), (FieldParams(7), 2)),
    ids=("gf4-d2", "gf9-d1", "gf7-d2"))


class TestPhaseQueryIdentity:
    @PHASE_DOMAINS
    def test_agrees_with_the_per_shift_loop(self, params, d):
        dom = build_vandermonde_domain(params, d)
        for secret in all_secrets(params, dom.n):
            assert phase_query_check(dom, secret) is per_shift_phase_check(dom, secret) is True

    @PHASE_DOMAINS
    @pytest.mark.parametrize("kernels_per_block", (None, 2), ids=("one-block", "two-per-block"))
    def test_the_batched_kernel_agrees_with_the_per_shift_loop(self, monkeypatch, params, d,
                                                               kernels_per_block):
        if kernels_per_block:
            # Each distinct shift is one q x q kernel: q shifts span ceil(q / 2) blocks.
            monkeypatch.setattr(errors, "BLOCK_ENTRIES", kernels_per_block * params.q ** 2 + 1)
        holds, loop = kernel_and_loop_verdicts(build_vandermonde_domain(params, d))
        assert len(holds) == params.q ** (d + 1)
        assert holds == loop
        assert all(holds)

    def test_blocks_of_shifts(self, monkeypatch):
        # Two kernels per block over GF(7)'s seven domain vectors: 2, 2, 2, 1.
        monkeypatch.setattr(errors, "BLOCK_ENTRIES", 2 * 49 + 1)
        dom = build_vandermonde_domain(FieldParams(7), 1)
        for secret in all_secrets(dom.params, dom.n):
            assert phase_query_check(dom, secret)

    @staticmethod
    def corrupt_add_entry(monkeypatch):
        """add_rows()[2, 1] = add_rows()[3, 1], so conjugating a shift by 1 fails."""
        real = FieldParams.add_rows

        def corrupted(self):
            table = real(self).copy()
            table[2, 1] = table[3, 1]
            return table

        monkeypatch.setattr(FieldParams, "add_rows", corrupted)

    def test_one_wrong_addition_entry_fails(self, monkeypatch):
        dom = build_vandermonde_domain(F5, 1)
        # s . (1, x) = 1 for every x: each kernel conjugates the shift by 1,
        # and the secret's dot products read only add[0, 1] and add[1, 0].
        secret = VectorFq.from_index_tuple(F5, (1, 0))
        assert phase_query_check(dom, secret)
        self.corrupt_add_entry(monkeypatch)
        assert not phase_query_check(dom, secret)
        assert not per_shift_phase_check(dom, secret)

    @pytest.mark.parametrize("kernels_per_block", (None, 1), ids=("one-block", "one-per-block"))
    def test_one_wrong_addition_entry_fails_secret_by_secret(self, monkeypatch, kernels_per_block):
        if kernels_per_block:
            # The failing shift, 1, is conjugated in the second block.
            monkeypatch.setattr(errors, "BLOCK_ENTRIES", kernels_per_block * 25 + 1)
        self.corrupt_add_entry(monkeypatch)
        holds, loop = kernel_and_loop_verdicts(build_vandermonde_domain(F5, 1))
        assert holds == loop
        # The zero secret shifts by 0 alone and holds; (1, 0) shifts by 1 and fails.
        assert holds[0] and not holds[5]

    @pytest.mark.parametrize("params", (F3, F4, F5), ids=("q3", "q4", "q5"))
    def test_all_secrets(self, params):
        dom = build_vandermonde_domain(params, 1)
        for secret in all_secrets(params, dom.n):
            assert phase_query_check(dom, secret)

    def test_zero_secret(self):
        dom = build_vandermonde_domain(F4, 1)
        assert phase_query_check(dom, VectorFq.from_index_tuple(F4, (0, 0)))

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(simulator, "DEFAULT_MAX_AMPLITUDES", 10)
        dom = build_vandermonde_domain(F5, 3)
        with pytest.raises(ResourceCapError):
            phase_query_check(dom, VectorFq.from_index_tuple(F5, (0,) * 4))
