"""The public surface: qvint.__all__ pinned, the oracle-only names gone from
the package, the test oracles kept apart from the kernels they check, one
immutability rule for the value types and one block budget."""

import ast
import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import qvint
from qvint import census, complexity, domain, errors, field, simulator, verify

MODULES = (census, complexity, domain, errors, field, simulator)

PUBLIC_NAMES = [
    "ContractError", "Domain", "DomainStats", "FieldElement", "FieldParams", "ImageSet",
    "IndependenceReport", "InstanceClassification", "OutcomeDistribution", "ParameterError",
    "PreimageCensus", "QueryPlan", "QvintError", "ReductionPlan", "ResourceCapError",
    "SampleReport", "SecondMomentCheck", "StateVector", "Transversal", "VectorFq",
    "build_explicit_domain", "build_monomial_domain", "build_vandermonde_domain",
    "character_orthogonality_check", "chebyshev_zero_bound", "classify_instance", "dot",
    "enumerate_census", "good_set_sizes", "image_set", "image_size_lower_bound",
    "monomial_exponents", "multivariate_query_bounds", "outcome_distribution",
    "parse_field_spec", "parse_vector", "phase_query_check", "plan_bounded_error",
    "plan_high_probability", "read_domain_file", "run_algorithm", "sample_outcomes",
    "second_moment_identity_check", "smallest_irreducible", "state_family_rank",
    "success_probability", "transform_census", "univariate_reduction",
    "validate_independence", "write_domain_file",
]


def test_all_is_pinned():
    assert qvint.__all__ == PUBLIC_NAMES
    assert all(hasattr(qvint, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_module_declares_the_names_it_defines(module):
    for name in module.__all__:
        assert vars(module)[name].__module__ == module.__name__
        assert getattr(qvint, name) is vars(module)[name]


def test_public_names_are_the_union_of_the_modules():
    assert sorted(name for module in MODULES for name in module.__all__) == PUBLIC_NAMES
    # The package root re-exports them and names none itself.
    source = Path(qvint.__file__).read_text(encoding="utf-8")
    named = {getattr(node, "id", getattr(node, "value", None))
             for node in ast.walk(ast.parse(source))}
    assert named.isdisjoint(PUBLIC_NAMES)


# Test oracles and lookups that no command or verify check runs; the
# oracles live in tests/oracles.py.
@pytest.mark.parametrize("owner,name", (
    (qvint, "Preimage"), (qvint, "linear_combination"), (qvint, "fourier_state"),
    (qvint, "restricted_fourier_state"),
    (census, "Preimage"), (census, "linear_combination"),
    (census.Transversal, "pairs"), (census.PreimageCensus, "count_of"),
    (census.PreimageCensus, "good_count_of"),
    (simulator, "fourier_state"), (simulator, "restricted_fourier_state"),
    (simulator.StateVector, "amplitude_of"), (simulator.StateVector, "norm"),
    (simulator.StateVector, "inner"), (simulator.OutcomeDistribution, "prob_of"),
    (domain.VectorFq, "scale"), (domain.VectorFq, "__add__"),
    (census.ImageSet, "__contains__"), (simulator.OutcomeDistribution, "argmax"),
    (census.PreimageCensus, "counts"), (census.PreimageCensus, "good_counts"),
    (census.PreimageCensus, "_nonzero_view"), (domain.Domain, "vectors"),
    (census.ImageSet, "elements"),
))
def test_oracle_only_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_no_parameter_exists_only_for_tests():
    # Faults are injected by monkeypatch in the tests, and no caller labels
    # an explicit domain.
    assert list(inspect.signature(verify.run_all).parameters) == []
    assert list(inspect.signature(domain.build_explicit_domain).parameters) == ["vectors"]


def test_simulator_public_functions_are_pinned():
    # Every public simulator function is a named span of the benchmark's
    # tracer, so a new one must be added there too.
    public = sorted(name for name, value in vars(simulator).items()
                    if not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == simulator.__name__)
    assert public == ["outcome_distribution", "phase_query_check", "run_algorithm",
                      "sample_outcomes", "state_family_rank", "success_probability"]


def private_names(source: str) -> list:
    """The "_"-prefixed names, dunders aside, that source imports from qvint
    or reads as attributes of anything."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "qvint":
            names += node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [part for alias in node.names if alias.name.split(".")[0] == "qvint"
                      for part in alias.name.split(".")]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return [name for name in names
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def test_oracles_use_no_private_name_of_the_package():
    source = (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
    assert "from qvint" in source
    assert private_names(source) == []
    # The check itself sees each way of reaching a kernel.
    assert private_names("from qvint.simulator import _fourier_phases") == ["_fourier_phases"]
    assert private_names("import qvint._x") == ["_x"]
    assert private_names("from qvint import simulator\nsimulator._sweep") == ["_sweep"]


def _value(name):
    """A small instance of the value type name."""
    f3 = qvint.FieldParams(3)
    counts = qvint.transform_census(qvint.build_vandermonde_domain(f3, 1), 1)
    state = qvint.run_algorithm(counts.domain, 1, counts.transversal,
                                qvint.VectorFq.from_index_tuple(f3, (1, 2)))
    dist = qvint.outcome_distribution(state)
    return {
        "FieldParams": qvint.FieldParams(3, 2),
        "FieldElement": qvint.FieldParams(3, 2).from_index(4),
        "VectorFq": qvint.VectorFq.from_index_tuple(f3, (1, 2)),
        "Domain": counts.domain,
        "PreimageCensus": counts,
        "ImageSet": qvint.image_set(counts),
        "Transversal": counts.transversal,
        "StateVector": state,
        "OutcomeDistribution": dist,
        "SampleReport": qvint.sample_outcomes(dist, 10, seed=1),
    }[name]


def _same(a, b) -> bool:
    """Equal values: ==, same_as for a Domain, and field by field for the
    census and simulator types, which compare by identity; arrays must come
    back read-only."""
    if isinstance(a, qvint.Domain):
        return a.same_as(b)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b) and not b.flags.writeable
    if is_dataclass(a) and type(a).__eq__ is object.__eq__:
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in fields(a) if f.init)
    return a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name", ("FieldParams", "FieldElement", "VectorFq", "Domain",
                                  "PreimageCensus", "ImageSet", "Transversal", "StateVector",
                                  "OutcomeDistribution", "SampleReport"))
def test_value_types_share_one_immutability_rule(name):
    value = _value(name)
    kind = type(value)
    assert kind.__name__ == name and is_dataclass(kind) and kind.__dataclass_params__.frozen
    # One __reduce__ for all ten: each is rebuilt through its constructor.
    assert kind.__reduce__ is qvint.PreimageCensus.__reduce__
    assert kind.__reduce__.__name__ == "_reduce_through_init"
    if name == "FieldParams":
        value.add_rows(), value.trace_characters()
    for f in fields(value):
        before = getattr(value, f.name)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f.name}'"):
            setattr(value, f.name, before)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f.name}'"):
            delattr(value, f.name)
        assert getattr(value, f.name) is before
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert back is not value and _same(value, back)
        if name == "FieldParams":
            assert back._tables == {} and value._tables


_F3 = field.FieldParams(3)


@pytest.mark.parametrize("build", (
    lambda: domain.Domain(_F3, [[1, 2], [1]]),
    lambda: census.ImageSet(_F3, 2, [[1, 2], [1]]),
    lambda: census.Transversal(domain.build_vandermonde_domain(_F3, 1), 1,
                               [[1, 2]], [[0], [0, 1]], [[1]]),
    lambda: simulator.StateVector(_F3, 1, [[1], [1, 2]]),
    lambda: simulator.OutcomeDistribution(_F3, 1, ["a", "b", "c"]),
    lambda: simulator.SampleReport(_F3, 1, [[1], [1, 2]], seed=0),
), ids=("Domain", "ImageSet", "Transversal", "StateVector", "OutcomeDistribution",
        "SampleReport"))
def test_malformed_arrays_are_parameter_errors(build):
    # Ragged rows and text where numbers belong, refused in numpy's words.
    with pytest.raises(errors.ParameterError, match=r"values are not an array of \w+: "):
        build()


def test_blocks_cover_the_count_in_order(monkeypatch):
    monkeypatch.setattr(errors, "BLOCK_ENTRIES", 12)
    # Three items of width 4 per block, the last block partial.
    assert errors.blocks(10, 4) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]
    assert errors.blocks(6, 4) == [slice(0, 3), slice(3, 6)]
    # An item wider than the budget still makes a block of its own.
    assert errors.blocks(3, 13) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert errors.blocks(0, 4) == []
    assert [errors.block_size(w) for w in (1, 5, 12, 13)] == [12, 2, 1, 1]


def test_one_module_reads_the_block_budget():
    # Blocked loops go through errors.block_size and errors.blocks, so
    # patching errors.BLOCK_ENTRIES re-blocks every one of them.
    package = Path(qvint.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py")
                     if any(getattr(node, "id", getattr(node, "attr", None)) == "BLOCK_ENTRIES"
                            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert readers == ["errors.py"]


def test_only_field_reads_the_operation_tables():
    # Index arithmetic goes through FieldParams.add and mul, so only field.py
    # knows the q x q layout; verify's two table-law checks test the tables.
    package = Path(qvint.__file__).parent
    readers = set()
    for path in package.glob("*.py"):
        if path.name == "field.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                name = getattr(node, "attr", getattr(node, "id", getattr(node, "value", None)))
                if name in ("add_rows", "mul_rows"):
                    readers.add(f"{path.stem}.{getattr(statement, 'name', '<module>')}")
    assert readers == {"verify._check_field_axioms", "verify._check_trace_character"}


def test_monomial_layer_builds_only_what_is_reported():
    # The planners need no domain, monomial_exponents grows its C(m+d, d)
    # tuples rather than filter a (d+1)^m product, and the independence
    # witness stays index rows.
    tree = ast.parse(inspect.getsource(complexity))
    assert [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)] == [
        "dataclasses", "errors"]
    assert "product" not in inspect.getsource(domain.monomial_exponents)
    assert "VectorFq" not in inspect.getsource(domain.validate_independence)
