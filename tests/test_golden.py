"""Golden reports: the exact stdout of a few small CLI runs.

Each file under tests/golden/ was captured from `python -m qvint.cli` with
the arguments listed here and is compared byte for byte, so a refactor that
changes any report (a digit, a key order, a float's last bit) fails here.
Regenerate a file only for a change that means to alter that report, and
say so where the change is recorded.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from qvint.cli import main

GOLDEN = Path(__file__).parent / "golden"
SAMPLED = ("--trials", "2000", "--seed", "20250815")

CASES = {
    "enumerate_gf5_vandermonde2_k2.json":
        ("enumerate", "--field", "5", "--vandermonde", "2", "--k", "2"),
    "enumerate_gf5_vandermonde2_k2.csv":
        ("enumerate", "--field", "5", "--vandermonde", "2", "--k", "2", "--format", "csv"),
    "enumerate_gf4_vandermonde2_k2.json":
        ("enumerate", "--field", "4", "--vandermonde", "2", "--k", "2"),
    "enumerate_gf4_vandermonde2_k2.csv":
        ("enumerate", "--field", "4", "--vandermonde", "2", "--k", "2", "--format", "csv"),
    "simulate_gf5_vandermonde2_k2_secret.json":
        ("simulate", "--field", "5", "--vandermonde", "2", "--k", "2",
         "--secret", "1,2,3") + SAMPLED,
    "simulate_gf4_vandermonde2_k2_secret.json":
        ("simulate", "--field", "4", "--vandermonde", "2", "--k", "2",
         "--secret", "1,0:1,1:1") + SAMPLED,
    "simulate_gf3_vandermonde1_sweep.json":
        ("simulate", "--field", "3", "--vandermonde", "1", "--secret", "sweep"),
    "analyze_gf3_monomial2_2.json":
        ("analyze", "--field", "3", "--monomial", "2,2"),
    "verify_full.txt":
        ("verify",),
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    result = CliRunner().invoke(main, list(CASES[name]))
    assert result.exit_code == 0, result.output
    assert result.output == (GOLDEN / name).read_text(encoding="ascii")
