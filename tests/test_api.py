"""The public surface: qvint.__all__ pinned, the oracle-only names gone from
the package, and the test oracles kept apart from the kernels they check."""

import ast
import inspect
from pathlib import Path

import pytest

import qvint
from qvint import census, simulator

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
))
def test_oracle_only_names_are_gone(owner, name):
    assert not hasattr(owner, name)


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
