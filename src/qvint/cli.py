"""Command line front-end: reproducible experiments, machine-readable reports.

Four subcommands share one option vocabulary:

* analyze: domain statistics and query planning, no enumeration.
* enumerate: the exact pre-image census with bound comparisons.
* simulate: end-to-end state simulation, analytic and sampled.
* verify: the named self-check suite (one line per check).

Reports are JSON by default (CSV only for the raw census table) and are
byte-identical across runs for the same configuration and seed; wall-clock
timings are included only when --timings is passed.  Exit codes: 0 success,
1 failed check or broken invariant, 2 usage error, 3 resource cap.
"""

import json
import math
import os
import random
import sys
import time
from dataclasses import asdict
from fractions import Fraction

import click
import numpy as np

from . import __version__, census as census_mod
from . import complexity, simulator, verify as verify_mod
from .domain import (build_monomial_domain, build_vandermonde_domain,
                     parse_vector, read_domain_file, vector_from_flat)
from .errors import ContractError, ParameterError, ResourceCapError, check_cap
from .field import parse_field_spec

# --secret sweep simulates every point of GF(q)^n as a secret, in blocks of
# secrets that share one decode of the transversal.
SWEEP_MAX_SECRETS = 4096


def _jsonable(value):
    """Recursively coerce report values into JSON-stable primitives."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report: dict, out, started):
    """Write a JSON report; a perf_counter start time adds the timings block."""
    if started is not None:
        report["timings"] = {"total_seconds": time.perf_counter() - started}
    _write(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n", out)


def _write(text: str, out):
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


def _census_csv(census) -> str:
    lines = ["z,count,good_count"]
    image = census.dense != 0
    for key, count, good in zip(census.image_keys.tolist(), census.dense[image].tolist(),
                                census.dense_good[image].tolist()):
        lines.append(f"{'-'.join(map(str, key))},{count},{good}")
    return "\n".join(lines) + "\n"


def domain_options(cmd):
    cmd = click.option(
        "--field", "field_spec", default=None, metavar="Q[:C0,C1,...]",
        help="Field order p^r, optionally with an explicit modulus.")(cmd)
    cmd = click.option(
        "--vandermonde", type=int, default=None, metavar="D",
        help="Rows (1, x, ..., x^D) over the whole field.")(cmd)
    cmd = click.option(
        "--monomial", default=None, metavar="M,D",
        help="All degree-<=D monomial rows in M variables.")(cmd)
    cmd = click.option(
        "--domain-file", type=click.Path(exists=True, dir_okay=False), default=None,
        help="Explicit domain file (carries its own field).")(cmd)
    return cmd


def _check_out(ctx, param, value):
    """Refuse an --out path whose directory is missing before any work."""
    if value is not None and not os.path.isdir(os.path.dirname(value) or "."):
        raise click.BadParameter(f"directory of {value!r} does not exist", ctx, param)
    return value


def output_options(cmd):
    cmd = click.option("--out", type=click.Path(dir_okay=False), default=None,
                       callback=_check_out,
                       help="Write the report here instead of stdout.")(cmd)
    cmd = click.option("--timings", is_flag=True,
                       help="Include wall-clock timings (breaks byte-reproducibility).")(cmd)
    return cmd


def _build_domain(field_spec, vandermonde, monomial, domain_file):
    """Resolve the mutually exclusive domain flags into a Domain."""
    chosen = [x for x in (vandermonde, monomial, domain_file) if x is not None]
    if len(chosen) != 1:
        raise ParameterError(
            "exactly one of --vandermonde, --monomial, --domain-file is required"
        )
    if domain_file is not None:
        if field_spec is not None:
            raise ParameterError("--domain-file carries its own field; drop --field")
        domain = read_domain_file(domain_file)
        return domain, None
    if field_spec is None:
        raise ParameterError("--field is required with --vandermonde/--monomial")
    params = parse_field_spec(field_spec)
    if vandermonde is not None:
        return build_vandermonde_domain(params, vandermonde), None
    try:
        m_text, d_text = monomial.split(",")
        m, d = int(m_text), int(d_text)
    except ValueError:
        raise ParameterError(f"--monomial expects 'M,D', got {monomial!r}") from None
    return build_monomial_domain(params, m, d), (m, d)


def _resolve_k(domain, k):
    """Explicit k, or the planned one (high-probability rule when defined)."""
    if k is not None:
        return k, "explicit"
    low, high, _ = complexity.query_plans(domain.stats())
    plan = high or low
    return plan.k, plan.rule


class _Commands(click.Group):
    """Maps package errors onto the documented exit codes for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParameterError as exc:
            raise click.UsageError(str(exc)) from exc
        except ResourceCapError as exc:
            click.echo(f"resource cap exceeded: {exc}", err=True)
            sys.exit(3)
        except ContractError as exc:
            click.echo(f"invariant violated: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="qvint")
def main():
    """Exact desk-scale experiments on secret-vector interpolation."""


@main.command()
@domain_options
@output_options
@click.option("--k", type=click.IntRange(min=0), default=None,
              help="Classify this query count.")
def analyze(field_spec, vandermonde, monomial, domain_file, k, out, timings):
    """Domain statistics and query planning; no enumeration."""
    started = time.perf_counter()
    domain, mono_md = _build_domain(field_spec, vandermonde, monomial, domain_file)
    stats = domain.stats()
    try:
        rep = domain.independence()
        independence = {
            "status": rep.status,
            "subset_size": rep.subset_size,
            "subsets_checked": rep.subsets_checked,
        }
        if rep.witness is not None:
            independence["witness"] = [list(v.index_tuple()) for v in rep.witness]
    except ResourceCapError as exc:
        independence = {"status": "skipped", "reason": str(exc)}

    low, high, high_error = complexity.query_plans(stats)
    report = {
        "command": "analyze",
        "config": dict(
            field=field_spec, vandermonde=vandermonde, monomial=monomial,
            domain_file=domain_file, k=k,
        ),
        "domain": asdict(stats),
        "independence": independence,
        "plan": {
            "bounded_error": asdict(low),
            "high_probability": None if high is None else asdict(high),
            "high_probability_error": high_error,
        },
    }
    if mono_md is not None:
        m, d = mono_md
        lower, upper = complexity.multivariate_query_bounds(
            stats.length, stats.field_order, m
        )
        reduction = complexity.univariate_reduction(m, d)
        report["monomial"] = {
            "bounds": {"lower": lower, "upper": upper},
            "reduction": {
                "exponents": list(reduction.exponents),
                "reduced_degree": reduction.reduced_degree,
                "suggested_k": reduction.suggested_k,
                "note": reduction.note,
            },
        }
    if k is not None:
        cls = complexity.classify_instance(stats, k)
        report["classification"] = {
            "k": cls.k,
            "summary": cls.summary,
            "meets_bounded_error": cls.meets_bounded_error,
            "meets_high_probability": cls.meets_high_probability,
        }
    _emit(report, out, started if timings else None)


@main.command(name="enumerate")
@domain_options
@output_options
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", help="Report format (csv: the raw census table).")
@click.option("--k", type=click.IntRange(min=0), default=None,
              help="Query count (planned if omitted).")
def cmd_enumerate(field_spec, vandermonde, monomial, domain_file, k, out, fmt, timings):
    """Exact pre-image census with bound comparisons."""
    started = time.perf_counter()
    domain, _ = _build_domain(field_spec, vandermonde, monomial, domain_file)
    k_value, k_rule = _resolve_k(domain, k)
    census = census_mod.transform_census(domain, k_value)
    if fmt == "csv":
        _write(_census_csv(census), out)
        return

    identity = census_mod.second_moment_identity_check(domain, k_value, census=census)
    cheb = census_mod.chebyshev_zero_bound(domain, k_value, census=census)
    observed = census.zero_count_fraction()
    lower = lower_note = None
    try:
        lower = census_mod.image_size_lower_bound(domain, k_value)
    except (ContractError, ResourceCapError) as exc:
        lower_note = str(exc)

    report = {
        "command": "enumerate",
        "config": dict(
            field=field_spec, vandermonde=vandermonde, monomial=monomial,
            domain_file=domain_file, k=k_value, k_rule=k_rule,
        ),
        "domain": asdict(domain.stats()),
        "census": {
            "image_size": census.image_size,
            "codomain_size": census.codomain_size,
            "total_tuples": census.total,
            "success_probability": census.success_probability(),
            "success_probability_float": float(census.success_probability()),
            "mean_count": census.mean(),
            "variance": census.variance(),
            "second_moment_sum": census.second_moment_sum(),
        },
        "bounds": {
            "image_lower_bound": lower,
            "image_lower_bound_note": lower_note,
            "lower_bound_satisfied": None if lower is None
            else census.image_size >= lower,
            "chebyshev_zero_bound": cheb,
            "largest_hyperplane_section": census.largest_hyperplane_section,
            "observed_zero_fraction": observed,
            "chebyshev_consistent": observed <= cheb,
        },
        "second_moment_identity": asdict(identity),
    }
    _emit(report, out, started if timings else None)
    if not identity.equal or observed > cheb:
        sys.exit(1)


@main.command()
@domain_options
@output_options
@click.option("--k", type=click.IntRange(min=0), default=None,
              help="Query count (planned if omitted).")
@click.option("--secret", default="random", metavar="SPEC",
              help="Element list 'a,b,...', or 'sweep' (all secrets), or 'random'.")
@click.option("--trials", type=click.IntRange(min=0), default=0, show_default=True,
              help="Empirical samples on top of the analytic result.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed of Python's random.Random, whose stream is stable across "
                   "versions, for sampling and random secrets.")
def simulate(field_spec, vandermonde, monomial, domain_file, k, secret, trials,
             seed, out, timings):
    """Run the k-query procedure; report analytic and sampled outcomes."""
    started = time.perf_counter()
    domain, _ = _build_domain(field_spec, vandermonde, monomial, domain_file)
    params = domain.params
    k_value, k_rule = _resolve_k(domain, k)
    simulator._check_state_size(params, domain.n)
    census = census_mod.transform_census(domain, k_value)
    analytic = census.success_probability()

    report = {
        "command": "simulate",
        "config": dict(
            field=field_spec, vandermonde=vandermonde, monomial=monomial,
            domain_file=domain_file, k=k_value, k_rule=k_rule,
            secret=secret, trials=trials, seed=seed,
        ),
        "domain": asdict(domain.stats()),
        "image_size": census.image_size,
        "codomain_size": census.codomain_size,
        "analytic": {
            "success_probability": analytic,
            "success_probability_float": float(analytic),
        },
    }

    codomain = census.codomain_size
    if secret == "sweep":
        check_cap("secret sweep", codomain, "secrets", SWEEP_MAX_SECRETS)
        errors = [abs(p - float(analytic))
                  for _, _, _, success in simulator._sweep(domain, k_value, census.transversal,
                                                           range(codomain))
                  for p in success]
        report["sweep"] = {
            "secrets": codomain,
            "max_abs_error": max(errors),
            "secret_independent": max(errors) < 1e-9,
        }
        _emit(report, out, started if timings else None)
        if max(errors) >= 1e-9:
            sys.exit(1)
        return

    if secret == "random":
        secret_vector = vector_from_flat(params, domain.n,
                                         random.Random(seed).randrange(codomain))
    else:
        secret_vector = parse_vector(params, secret)
        if secret_vector.n != domain.n:
            raise ParameterError(
                f"secret has {secret_vector.n} coordinates, domain needs {domain.n}"
            )
    report["secret"] = list(secret_vector.index_tuple())

    state = simulator.run_algorithm(domain, k_value, census.transversal, secret_vector)
    dist = simulator.outcome_distribution(state)
    measured = simulator.success_probability(state, secret_vector)
    report["analytic"]["measured_success_probability"] = measured
    report["analytic"]["matches_image_ratio"] = abs(measured - float(analytic)) < 1e-9
    report["analytic"]["top_outcomes"] = [
        {"outcome": list(v.index_tuple()), "probability": p}
        for v, p in dist.top(5)
    ]

    if trials > 0:
        sample = simulator.sample_outcomes(dist, trials, seed)
        p = float(analytic)
        tolerance = 3 * math.sqrt(p * (1 - p) / trials) if 0 < p < 1 else 0.0
        top = sorted(sample.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        report["empirical"] = {
            "trials": trials,
            "seed": seed,
            "frequency_of_secret": sample.frequency_of(secret_vector),
            "tolerance_3sigma": tolerance,
            "within_tolerance":
                abs(sample.frequency_of(secret_vector) - p) <= tolerance
                if tolerance else sample.frequency_of(secret_vector) == p,
            "top_outcomes": [
                {"outcome": list(key), "count": count, "frequency": count / trials}
                for key, count in top
            ],
        }
    _emit(report, out, started if timings else None)
    if not report["analytic"]["matches_image_ratio"]:
        sys.exit(1)


@main.command()
@click.option("--quick", is_flag=True, help="Small sub-10-second grid.")
@click.option("--inject-corrupt-modulus", is_flag=True, hidden=True)
def verify(quick, inject_corrupt_modulus):
    """Run the named self-check suite; one line per check."""
    results = verify_mod.run_all(quick=quick, corrupt_modulus=inject_corrupt_modulus)
    failures = 0
    for result in results:
        tag = "PASS" if result.ok else "FAIL"
        click.echo(f"{tag}  {result.name}: {result.detail}")
        failures += 0 if result.ok else 1
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
