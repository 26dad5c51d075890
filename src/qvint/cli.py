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

from . import __version__, census as census_mod
from . import complexity, simulator, verify as verify_mod
from .domain import (build_monomial_domain, build_vandermonde_domain,
                     parse_vector, read_domain_file, vector_from_flat)
from .errors import ContractError, ParameterError, ResourceCapError, check_cap
from .field import parse_field_spec

# --secret sweep simulates every point of GF(q)^n as a secret, in blocks of
# secrets that share one decode of the transversal.
SWEEP_MAX_SECRETS = 4096


def _plain(value):
    """json.dumps default: a Fraction as its text."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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


def _check_out(ctx, param, value):
    """Refuse an --out path whose directory is missing before any work."""
    if value is not None and not os.path.isdir(os.path.dirname(value) or "."):
        raise click.BadParameter(f"directory of {value!r} does not exist", ctx, param)
    return value


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


_DOMAIN_OPTIONS = (
    click.option("--field", "field_spec", default=None, metavar="Q[:C0,C1,...]",
                 help="Field order p^r, optionally with an explicit modulus."),
    click.option("--vandermonde", type=int, default=None, metavar="D",
                 help="Rows (1, x, ..., x^D) over the whole field."),
    click.option("--monomial", default=None, metavar="M,D",
                 help="All degree-<=D monomial rows in M variables."),
    click.option("--domain-file", type=click.Path(exists=True, dir_okay=False), default=None,
                 help="Explicit domain file (carries its own field)."),
)
_OUTPUT_OPTIONS = (
    click.option("--out", type=click.Path(dir_okay=False), default=None, callback=_check_out,
                 help="Write the report here instead of stdout."),
    click.option("--timings", is_flag=True,
                 help="Include wall-clock timings (breaks byte-reproducibility)."),
)


def _domain_command(name, *options, planned_k=True):
    """Register body as the command `name` over one domain.

    The command takes the domain flags, --k, --out and --timings on top of
    its own options, builds the domain, and starts the report with its
    command, config and domain.  With planned_k an omitted --k becomes the
    planned one (the high-probability rule when defined) and config records
    its rule as k_rule; without it --k is passed on as given.
    body(domain, mono_md, k, report, **own_options) adds its sections and
    returns the verdict, False exiting 1 after the JSON report is written;
    or it returns the text of a CSV report, written as it is.
    """
    def decorate(body):
        def command(field_spec, vandermonde, monomial, domain_file, k, out, timings, **own):
            started = time.perf_counter()
            domain, mono_md = _build_domain(field_spec, vandermonde, monomial, domain_file)
            config = dict(field=field_spec, vandermonde=vandermonde, monomial=monomial,
                          domain_file=domain_file)
            if planned_k:
                config["k_rule"] = "explicit"
                if k is None:
                    low, high, _ = complexity.query_plans(domain.stats())
                    k, config["k_rule"] = (high or low).k, (high or low).rule
            config["k"] = k
            report = {"command": name, "config": config, "domain": asdict(domain.stats())}
            verdict = body(domain, mono_md, k, report, **own)
            if isinstance(verdict, str):
                _write(verdict, out)
                return
            if timings:
                report["timings"] = {"total_seconds": time.perf_counter() - started}
            _write(json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n", out)
            if verdict is False:
                sys.exit(1)

        k_help = "Query count (planned if omitted)." if planned_k else "Classify this query count."
        k_option = click.option("--k", type=click.IntRange(min=0), default=None, help=k_help)
        for option in reversed(_DOMAIN_OPTIONS + (k_option,) + options + _OUTPUT_OPTIONS):
            command = option(command)
        return main.command(name=name, help=body.__doc__)(command)
    return decorate


@_domain_command("analyze", planned_k=False)
def analyze(domain, mono_md, k, report):
    """Domain statistics and query planning; no enumeration."""
    stats = domain.stats()
    try:
        rep = domain.independence()
        report["independence"] = {
            "status": rep.status,
            "subset_size": rep.subset_size,
            "subsets_checked": rep.subsets_checked,
        }
        if rep.witness is not None:
            report["independence"]["witness"] = rep.witness
    except ResourceCapError as exc:
        report["independence"] = {"status": "skipped", "reason": str(exc)}

    low, high, high_error = complexity.query_plans(stats)
    report["plan"] = {
        "bounded_error": asdict(low),
        "high_probability": None if high is None else asdict(high),
        "high_probability_error": high_error,
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
        report["classification"] = asdict(complexity.classify_instance(stats, k))


@_domain_command("enumerate", click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    help="Report format (csv: the raw census table)."))
def cmd_enumerate(domain, mono_md, k, report, fmt):
    """Exact pre-image census with bound comparisons."""
    census = census_mod.transform_census(domain, k)
    if fmt == "csv":
        return _census_csv(census)

    identity = census_mod.second_moment_identity_check(domain, k, census=census)
    cheb = census_mod.chebyshev_zero_bound(domain, k, census=census)
    observed = census.zero_count_fraction()
    lower = lower_note = None
    try:
        lower = census_mod.image_size_lower_bound(domain, k)
    except (ContractError, ResourceCapError) as exc:
        lower_note = str(exc)

    report["census"] = {
        "image_size": census.image_size,
        "codomain_size": census.codomain_size,
        "total_tuples": census.total,
        "success_probability": census.success_probability(),
        "success_probability_float": float(census.success_probability()),
        "mean_count": census.mean(),
        "variance": census.variance(),
        "second_moment_sum": census.second_moment_sum(),
    }
    report["bounds"] = {
        "image_lower_bound": lower,
        "image_lower_bound_note": lower_note,
        "lower_bound_satisfied": None if lower is None
        else census.image_size >= lower,
        "chebyshev_zero_bound": cheb,
        "largest_hyperplane_section": census.largest_hyperplane_section,
        "observed_zero_fraction": observed,
        "chebyshev_consistent": observed <= cheb,
    }
    report["second_moment_identity"] = asdict(identity)
    return identity.equal and observed <= cheb


@_domain_command(
    "simulate",
    click.option("--secret", default="random", metavar="SPEC",
                 help="Element list 'a,b,...', or 'sweep' (all secrets), or 'random'."),
    click.option("--trials", type=click.IntRange(min=0), default=0, show_default=True,
                 help="Empirical samples on top of the analytic result."),
    click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
                 help="Seed of Python's random.Random, whose stream is stable across "
                      "versions, for sampling and random secrets."))
def simulate(domain, mono_md, k, report, secret, trials, seed):
    """Run the k-query procedure; report analytic and sampled outcomes."""
    if secret == "sweep" and trials:
        raise ParameterError("--secret sweep samples nothing; drop --trials")
    params = domain.params
    codomain = simulator._check_state_size(params, domain.n)
    # Every refusal of the request comes before the census.
    if secret == "sweep":
        check_cap("secret sweep", codomain, "secrets", SWEEP_MAX_SECRETS)
    elif secret == "random":
        secret_vector = vector_from_flat(params, domain.n, random.Random(seed).randrange(codomain))
    else:
        secret_vector = parse_vector(params, secret)
        simulator._check_secret(params, domain.n, secret_vector)
    check_cap("sampling", trials, "trials", simulator.MAX_TRIALS)
    census = census_mod.transform_census(domain, k)
    analytic = census.success_probability()
    report["config"].update(secret=secret, trials=trials, seed=seed)
    report["image_size"] = census.image_size
    report["codomain_size"] = codomain
    report["analytic"] = {
        "success_probability": analytic,
        "success_probability_float": float(analytic),
    }

    if secret == "sweep":
        error = max(abs(p - float(analytic))
                    for _, _, _, success in simulator._sweep(domain, k, census.transversal,
                                                             range(codomain))
                    for p in success)
        report["sweep"] = {
            "secrets": codomain,
            "max_abs_error": error,
            "secret_independent": error < 1e-9,
        }
        return error < 1e-9

    report["secret"] = list(secret_vector.index_tuple())

    state = simulator.run_algorithm(domain, k, census.transversal, secret_vector)
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
        frequency = sample.frequency_of(secret_vector)
        report["empirical"] = {
            "trials": trials,
            "seed": seed,
            "frequency_of_secret": frequency,
            "tolerance_3sigma": tolerance,
            "within_tolerance": abs(frequency - p) <= tolerance if tolerance else frequency == p,
            "top_outcomes": [
                {"outcome": list(v.index_tuple()), "count": count, "frequency": count / trials}
                for v, count in sample.top(5)
            ],
        }
    return report["analytic"]["matches_image_ratio"]


@main.command()
def verify():
    """Run the named self-check suite; one line per check."""
    results = verify_mod.run_all()
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
