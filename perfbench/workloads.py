"""The benchmark's workloads: seeded command lists and their exact oracles.

Each workload is a list of rungs.  A rung is one `qvint` command line and
what its output must say.  Fixed rungs compare exact outputs against values
frozen from the reference commit; seeded rungs check the CLI's own
invariants, since their answers depend on the seed.  No two rungs of one
workload share a (field, domain, k): a pass starts in a fresh interpreter,
as a CLI user does, so nothing cached between commands can look like a gain.

The seed only picks *which* instance of a fixed shape is run.  The cost of
every rung ((|V| q)^k tuples, q^n |V| dot products) does not depend on it.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Seeded explicit domain for the census ladder: |V| distinct nonzero vectors
# of GF(9)^4 (modulus x^2 + 1), enumerated at k = 3, so the walk always visits
# (10 * 9)^3 = 729000 tuples and the identity always takes 9^4 * 10 dot products.
FILE_Q, FILE_P, FILE_N, FILE_SIZE, FILE_K = 9, 3, 4, 10, 3
FILE_MODULUS = "1,0,1"


@dataclass(frozen=True)
class Rung:
    """One command of a workload and the exact facts its output must state.

    `expect` maps a dotted path into the JSON report to its exact value.
    `last_line` is the expected final line of a plain-text report.  Every
    rung must also exit with code 0.
    """

    name: str
    args: tuple
    expect: dict = field(default_factory=dict)
    last_line: str | None = None

    def check(self, exit_code, text: str) -> list:
        """Problems found in one run of this rung; empty means correct."""
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code!r}, expected 0")
        if self.last_line is not None:
            lines = text.rstrip("\n").split("\n")
            if lines[-1] != self.last_line:
                problems.append(f"last line {lines[-1]!r}, expected {self.last_line!r}")
        if self.expect:
            try:
                report = json.loads(text)
            except ValueError:
                return problems + ["report is not JSON"]
            for path, want in self.expect.items():
                got = _lookup(report, path)
                if got != want:
                    problems.append(f"{path} = {got!r}, expected {want!r}")
        return problems


def _lookup(report, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return "<missing>"
        node = node[key]
    return node


def _enumerate_rung(name, args, image, second_moment, probability):
    return Rung(name, ("enumerate",) + args, expect={
        "census.image_size": image,
        "census.second_moment_sum": second_moment,
        "census.success_probability": probability,
        "second_moment_identity.equal": True,
        "bounds.chebyshev_consistent": True,
    })


def write_seeded_domain(path: Path, seed: int) -> None:
    """Write FILE_SIZE distinct nonzero random vectors of GF(9)^4 to path."""
    rng = random.Random(seed)
    flats = rng.sample(range(1, FILE_Q ** FILE_N), FILE_SIZE)
    lines = [f"q={FILE_Q} n={FILE_N} modulus={FILE_MODULUS}"]
    for flat in flats:
        digits = [(flat // FILE_Q ** i) % FILE_Q for i in reversed(range(FILE_N))]
        # Element index c0 + 3*c1 is written 'c0:c1', low degree first.
        lines.append(",".join(f"{d % FILE_P}:{d // FILE_P}" for d in digits))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def census_ladder(seed: int, workdir: Path) -> list:
    domain_file = workdir / "domain-gf9-n4.txt"
    write_seeded_domain(domain_file, seed)
    return [
        _enumerate_rung("enumerate-gf7-d3-k3",
                        ("--field", "7", "--vandermonde", "3", "--k", "3"),
                        2395, 14501011, "2395/2401"),
        _enumerate_rung("enumerate-gf8-d3-k3",
                        ("--field", "8", "--vandermonde", "3", "--k", "3"),
                        4089, 37585920, "4089/4096"),
        _enumerate_rung("enumerate-gf11-d3-k3",
                        ("--field", "11", "--vandermonde", "3", "--k", "3"),
                        14631, 373453311, "14631/14641"),
        _enumerate_rung("enumerate-gf3-m2d2-k2",
                        ("--field", "3", "--monomial", "2,2", "--k", "2"),
                        163, 16875, "163/729"),
        Rung("enumerate-gf9-file-k3",
             ("enumerate", "--domain-file", str(domain_file), "--k", str(FILE_K)),
             expect={
                 "domain.size": FILE_SIZE,
                 "census.total_tuples": (FILE_SIZE * FILE_Q) ** FILE_K,
                 "census.codomain_size": FILE_Q ** FILE_N,
                 "second_moment_identity.equal": True,
                 "bounds.chebyshev_consistent": True,
             }),
    ]


def verify(seed: int, workdir: Path) -> list:
    return [Rung("verify-full", ("verify",), last_line="109/109 checks passed")]


# Workload name -> function giving its rungs for (seed, work directory).
# BENCHMARK.json records why each workload exists.
WORKLOADS = {
    "census-ladder": census_ladder,
    "verify": verify,
}
