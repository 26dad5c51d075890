"""Command-line behavior: report contents, formats, and exit codes."""

import json
import os
import subprocess
import sys
import time

import click
import pytest
from click.testing import CliRunner

import qvint
from qvint import simulator, verify as verify_mod
from qvint.cli import main
from qvint.domain import Domain, VectorFq, build_vandermonde_domain, write_domain_file
from qvint.errors import ContractError, ParameterError, ResourceCapError
from qvint.field import FieldParams


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def binary_domain_file(tmp_path, m, n):
    """A domain file of the m largest vectors of GF(2)^n; returns its path."""
    rows = [format((1 << n) - 1 - i, f"0{n}b") for i in range(m)]
    path = tmp_path / "domain.txt"
    path.write_text(f"q=2 n={n}\n" + "".join(",".join(row) + "\n" for row in rows),
                    encoding="ascii")
    return str(path)


class TestAnalyze:
    def test_vandermonde_plans(self, runner):
        report = run_json(runner, ["analyze", "--field", "5", "--vandermonde", "3"])
        assert report["domain"]["size"] == 5
        assert report["domain"]["length"] == 4
        assert report["domain"]["zero_touching"] == 1
        assert report["independence"]["status"] == "verified"
        assert report["plan"]["bounded_error"]["k"] == 2
        assert report["plan"]["high_probability"]["k"] == 3

    def test_monomial_block(self, runner):
        report = run_json(runner, ["analyze", "--field", "3", "--monomial", "2,2"])
        assert report["domain"]["length"] == 6
        assert report["domain"]["size"] == 9
        assert report["domain"]["zero_touching"] == 5
        assert report["independence"]["status"] == "refuted"
        assert report["independence"]["witness"]
        assert report["monomial"]["bounds"] == {"lower": 1, "upper": 32}
        assert report["monomial"]["reduction"]["exponents"] == [1, 3]
        assert report["monomial"]["reduction"]["reduced_degree"] == 6

    def test_classification(self, runner):
        report = run_json(
            runner, ["analyze", "--field", "7", "--vandermonde", "3", "--k", "3"])
        assert report["classification"]["summary"] == "high-regime exact match"
        assert report["classification"]["meets_high_probability"] is True

    def test_extension_field(self, runner):
        report = run_json(runner, ["analyze", "--field", "4", "--vandermonde", "1"])
        assert report["domain"]["field_order"] == 4
        assert report["domain"]["characteristic"] == 2
        assert report["domain"]["extension_degree"] == 2

    def test_explicit_modulus(self, runner):
        report = run_json(
            runner, ["analyze", "--field", "4:1,1,1", "--vandermonde", "1"])
        assert report["domain"]["field_order"] == 4


class TestEnumerate:
    def test_small_census_report(self, runner):
        report = run_json(
            runner, ["enumerate", "--field", "3", "--vandermonde", "1", "--k", "1"])
        assert report["census"]["image_size"] == 7
        assert report["census"]["codomain_size"] == 9
        assert report["census"]["success_probability"] == "7/9"
        assert report["second_moment_identity"] == {
            "lhs": 15, "rhs": "15", "equal": True}
        assert report["bounds"]["image_lower_bound"] == 6
        assert report["bounds"]["lower_bound_satisfied"] is True
        assert report["bounds"]["chebyshev_consistent"] is True

    @pytest.mark.parametrize("q,bound,observed", (
        (7, "242412/16807", "8868/16807"),
        (8, "14021/1024", "14091/32768"),
    ))
    def test_tail_bound_holds_at_degree_four(self, runner, q, bound, observed):
        report = run_json(runner, ["enumerate", "--field", str(q), "--vandermonde", "4",
                                   "--k", "3"])
        assert report["second_moment_identity"]["equal"] is True
        assert report["bounds"]["chebyshev_zero_bound"] == bound
        assert report["bounds"]["observed_zero_fraction"] == observed
        assert report["bounds"]["chebyshev_consistent"] is True
        assert report["bounds"]["largest_hyperplane_section"] == 4

    def test_k0(self, runner):
        report = run_json(
            runner, ["enumerate", "--field", "3", "--vandermonde", "1", "--k", "0"])
        assert report["census"]["image_size"] == 1
        assert report["census"]["total_tuples"] == 1

    def test_planned_k_prefers_high_probability(self, runner):
        report = run_json(runner, ["enumerate", "--field", "5", "--vandermonde", "3"])
        assert report["config"]["k"] == 3
        assert report["config"]["k_rule"] == "high-regime-tie"
        assert report["census"]["image_size"] == 601

    def test_explicit_k_lower_bound(self, runner):
        report = run_json(
            runner, ["enumerate", "--field", "5", "--vandermonde", "3", "--k", "2"])
        assert report["config"]["k_rule"] == "explicit"
        assert report["census"]["image_size"] == 181
        assert report["bounds"]["image_lower_bound"] == 160
        assert report["bounds"]["lower_bound_satisfied"] is True

    def test_lower_bound_note_when_hypothesis_fails(self, runner):
        report = run_json(
            runner, ["enumerate", "--field", "3", "--vandermonde", "1", "--k", "2"])
        assert report["bounds"]["image_lower_bound"] is None
        assert "2k <= n" in report["bounds"]["image_lower_bound_note"]
        assert report["bounds"]["lower_bound_satisfied"] is None

    def test_csv_table(self, runner):
        result = runner.invoke(
            main, ["enumerate", "--field", "3", "--vandermonde", "1",
                   "--k", "1", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == (
            "z,count,good_count\n"
            "0-0,3,0\n"
            "1-0,1,1\n"
            "1-1,1,1\n"
            "1-2,1,1\n"
            "2-0,1,1\n"
            "2-1,1,1\n"
            "2-2,1,1\n"
        )

    def test_csv_rejected_outside_enumerate(self, runner):
        for command in ("analyze", "simulate"):
            result = runner.invoke(
                main, [command, "--field", "3", "--vandermonde", "1",
                       "--format", "csv"])
            assert result.exit_code == 2
            assert "No such option '--format'" in result.output

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(
            main, ["enumerate", "--field", "3", "--vandermonde", "1",
                   "--k", "1", "--out", str(target)])
        assert result.exit_code == 0
        assert f"wrote {target}" in result.output
        assert json.loads(target.read_text())["census"]["image_size"] == 7

    @pytest.mark.parametrize("command", ("enumerate", "simulate"))
    def test_max_tuples_is_not_an_option(self, runner, command):
        # The transform census does no tuple walk, so there is nothing to cap.
        result = runner.invoke(
            main, [command, "--field", "5", "--vandermonde", "3",
                   "--k", "9", "--max-tuples", "1000"])
        assert result.exit_code == 2
        assert "--max-tuples" in result.output


class TestSimulate:
    def test_explicit_secret_with_sampling(self, runner):
        report = run_json(
            runner, ["simulate", "--field", "3", "--vandermonde", "1",
                     "--k", "1", "--secret", "1,2",
                     "--trials", "2000", "--seed", "20250815"])
        assert report["secret"] == [1, 2]
        assert report["image_size"] == 7
        assert report["analytic"]["success_probability"] == "7/9"
        assert report["analytic"]["matches_image_ratio"] is True
        top = report["analytic"]["top_outcomes"]
        assert top[0]["outcome"] == [1, 2]
        assert abs(top[0]["probability"] - 7 / 9) < 1e-9
        emp = report["empirical"]
        assert emp["trials"] == 2000
        assert emp["within_tolerance"] is True

    def test_sweep_is_secret_independent(self, runner):
        report = run_json(
            runner, ["simulate", "--field", "3", "--vandermonde", "1",
                     "--k", "1", "--secret", "sweep"])
        assert report["sweep"]["secrets"] == 9
        assert report["sweep"]["secret_independent"] is True
        assert report["sweep"]["max_abs_error"] < 1e-9

    def test_random_secret_is_seeded(self, runner):
        args = ["simulate", "--field", "5", "--vandermonde", "1",
                "--k", "1", "--secret", "random", "--seed", "11"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_extension_field_secret(self, runner):
        report = run_json(
            runner, ["simulate", "--field", "4", "--vandermonde", "1",
                     "--k", "1", "--secret", "0:1,1:1"])
        assert report["secret"] == [2, 3]
        assert report["analytic"]["success_probability"] == "13/16"

    def test_sweep_cap(self, runner):
        result = runner.invoke(
            main, ["simulate", "--field", "7", "--vandermonde", "4",
                   "--k", "1", "--secret", "sweep"])
        assert result.exit_code == 3
        assert "4096" in result.output

    def test_secret_length_checked(self, runner):
        result = runner.invoke(
            main, ["simulate", "--field", "3", "--vandermonde", "1",
                   "--k", "1", "--secret", "1,2,0"])
        assert result.exit_code == 2
        assert ("secret has length 3 over GF(3), state needs length 2 over GF(3)"
                in result.output)

    def test_sweep_with_trials_is_refused_before_the_census(self, runner, monkeypatch):
        # A sweep samples nothing, so a report may not record trials it never ran.
        def no_census(*args):
            raise AssertionError("census built")

        monkeypatch.setattr("qvint.census.transform_census", no_census)
        result = runner.invoke(
            main, ["simulate", "--field", "3", "--vandermonde", "1",
                   "--k", "1", "--secret", "sweep", "--trials", "10"])
        assert result.exit_code == 2, result.output
        assert "--secret sweep samples nothing; drop --trials" in result.output

    @pytest.mark.parametrize("args,code,message", (
        (["--field", "1021", "--vandermonde", "1", "--secret", "sweep"], 3,
         "secret sweep needs 1042441 secrets, cap is 4096"),
        (["--field", "31", "--vandermonde", "3", "--secret", "1,2"], 2,
         "secret has length 2 over GF(31), state needs length 4 over GF(31)"),
        (["--field", "31", "--vandermonde", "3", "--secret", "1,2,x,4"], 2,
         "bad element token 'x'"),
        (["--field", "31", "--vandermonde", "3", "--secret", "1,2,3,4",
          "--trials", str(simulator.MAX_TRIALS + 1)], 3,
         f"sampling needs {simulator.MAX_TRIALS + 1} trials"),
    ), ids=("sweep-cap", "secret-length", "secret-token", "trials-cap"))
    def test_request_is_refused_before_the_census(self, runner, monkeypatch, args, code,
                                                  message):
        def no_census(*args):
            raise AssertionError("census built")

        monkeypatch.setattr("qvint.census.transform_census", no_census)
        result = runner.invoke(main, ["simulate", "--k", "1"] + args)
        assert result.exit_code == code, result.output
        assert message in result.output


class TestDomainFiles:
    def test_enumerate_from_file(self, runner, tmp_path):
        path = tmp_path / "domain.txt"
        write_domain_file(build_vandermonde_domain(FieldParams(3), 1), str(path))
        report = run_json(runner, ["enumerate", "--domain-file", str(path), "--k", "1"])
        assert report["census"]["image_size"] == 7

    def test_analyze_a_domain_past_flat_index_range(self, runner, tmp_path):
        # GF(1021)^8 has more than 2^63 points, so no flat index covers it.
        rows = [[1020, 3, 0, 7, 1, 2, 9, 1000], [5] * 8, [1020, 3, 0, 7, 1, 2, 9, 1000],
                [0] * 7 + [1]]
        domain = Domain(FieldParams(1021), rows)
        assert domain.indices.tolist() == [[0] * 7 + [1], [5] * 8, rows[0]]
        path = tmp_path / "domain.txt"
        write_domain_file(domain, str(path))
        report = run_json(runner, ["analyze", "--domain-file", str(path), "--k", "2"])
        assert report["domain"]["size"] == 3
        assert report["domain"]["length"] == 8
        assert report["domain"]["zero_touching"] == 2
        assert report["independence"]["status"] == "verified"

    @pytest.mark.parametrize("text", (
        "q=abc n=2\n1,1\n",
        "q=3 n=two\n1,1\n",
        "q=9 n=2 modulus=1,x,1\n1,1\n",
        None,  # no file at all
        b"q=3 n=2\n1,\xc3\xa9\n",  # UTF-8 for "1,\u00e9"
    ), ids=("bad-q", "bad-n", "bad-modulus", "missing", "non-ascii"))
    def test_malformed_file_is_a_usage_error(self, runner, tmp_path, text):
        path = tmp_path / "domain.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text, encoding="ascii")
        result = runner.invoke(main, ["analyze", "--domain-file", str(path)])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output

    def test_degenerate_plan_promises_no_success_probability(self, runner, tmp_path):
        # No vector touches zero, yet one query reaches only 5 of 9 targets.
        path = tmp_path / "domain.txt"
        path.write_text("q=3 n=2\n1,1\n1,2\n2,1\n", encoding="ascii")
        plan = run_json(runner, ["analyze", "--domain-file", str(path)])["plan"]
        assert plan["high_probability"] == {
            "k": 1,
            "rule": "high-regime-degenerate",
            "note": "no domain vector touches zero, so the |V_0| formula sets no "
                    "constraint and the least k, 1, is planned; it promises no "
                    "success probability",
        }
        report = run_json(runner, ["enumerate", "--domain-file", str(path)])
        assert report["config"]["k"] == 1
        assert report["config"]["k_rule"] == "high-regime-degenerate"
        assert report["census"]["success_probability"] == "5/9"

    def test_field_flag_conflicts_with_file(self, runner, tmp_path):
        path = tmp_path / "domain.txt"
        write_domain_file(build_vandermonde_domain(FieldParams(3), 1), str(path))
        result = runner.invoke(
            main, ["analyze", "--field", "3", "--domain-file", str(path)])
        assert result.exit_code == 2


class TestIndependenceCaps:
    def test_elimination_cap_is_reported_not_fatal(self, runner):
        # 32 vectors of 100001 coordinates: one subset, 32^2 * 100001 steps.
        report = run_json(runner, ["analyze", "--field", "32", "--vandermonde", "100000"])
        assert report["independence"] == {
            "status": "skipped",
            "reason": "independence check needs 102401024 elimination steps, "
                      "cap is 100000000",
        }


_DOMAIN_HELP = {
    ("--field Q[:C0,C1,...]", "Field order p^r, optionally with an explicit modulus.", None),
    ("--vandermonde D", "Rows (1, x, ..., x^D) over the whole field.", None),
    ("--monomial M,D", "All degree-<=D monomial rows in M variables.", None),
    ("--domain-file FILE", "Explicit domain file (carries its own field).", None),
    ("--out FILE", "Write the report here instead of stdout.", None),
    ("--timings", "Include wall-clock timings (breaks byte-reproducibility).", False),
    ("--help", "Show this message and exit.", False),
}
_PLANNED_K = ("--k INTEGER RANGE", "Query count (planned if omitted).  [x>=0]", None)


class TestHelp:
    # Each command's options, metavars, defaults and help strings; the
    # order in which --help lists them is not pinned.
    @pytest.mark.parametrize("command,own", (
        ("analyze", {("--k INTEGER RANGE", "Classify this query count.  [x>=0]", None)}),
        ("enumerate", {_PLANNED_K, (
            "--format [json|csv]", "Report format (csv: the raw census table).", "json")}),
        ("simulate", {_PLANNED_K, (
            "--secret SPEC", "Element list 'a,b,...', or 'sweep' (all secrets), or 'random'.",
            "random"), (
            "--trials INTEGER RANGE",
            "Empirical samples on top of the analytic result.  [default: 0; x>=0]", 0), (
            "--seed INTEGER RANGE",
            "Seed of Python's random.Random, whose stream is stable across versions, for "
            "sampling and random secrets.  [default: 0; x>=0]", 0)}),
    ))
    def test_options_are_unchanged(self, command, own):
        cmd = main.commands[command]
        ctx = click.Context(cmd, info_name=command)
        got = [(*param.get_help_record(ctx), param.default) for param in cmd.get_params(ctx)]
        assert len(got) == len(set(got))
        assert set(got) == _DOMAIN_HELP | own


class TestUsageErrors:
    @pytest.mark.parametrize("args", (
        ["analyze"],
        ["analyze", "--field", "3"],
        ["analyze", "--field", "3", "--vandermonde", "1", "--monomial", "2,2"],
        ["analyze", "--vandermonde", "1"],
        ["analyze", "--field", "6", "--vandermonde", "1"],
        ["analyze", "--field", "3", "--monomial", "2"],
        ["enumerate", "--field", "3", "--vandermonde", "1", "--k", "-1"],
        ["simulate", "--field", "3", "--vandermonde", "1", "--trials", "-5"],
        ["simulate", "--field", "4", "--vandermonde", "2", "--k", "1", "--secret", "1,2,3"],
        ["simulate", "--field", "3", "--vandermonde", "1", "--k", "1", "--seed", "-1"],
        ["simulate", "--field", "3", "--vandermonde", "1", "--k", "1",
         "--secret", "1,2", "--trials", "5", "--seed", "-1"],
        ["simulate", "--field", "3", "--vandermonde", "1", "--k", "-1"],
        ["analyze", "--field", "3", "--vandermonde", "1", "--k", "-1"],
    ))
    def test_exit_code_two(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("args,out", (
        (["analyze", "--field", "3", "--vandermonde", "1"], "{tmp}"),
        (["enumerate", "--field", "3", "--vandermonde", "1", "--k", "1",
          "--format", "csv"], "{tmp}"),
        (["enumerate", "--field", "3", "--vandermonde", "1", "--k", "1"],
         "{tmp}/missing/x.json"),
    ), ids=("analyze-directory", "csv-directory", "missing-directory"))
    def test_bad_out_path_is_refused_before_work(self, runner, tmp_path, monkeypatch,
                                                 args, out):
        def no_work(*args):
            raise AssertionError("command started work")

        monkeypatch.setattr("qvint.cli._build_domain", no_work)
        out = out.format(tmp=tmp_path)
        result = runner.invoke(main, args + ["--out", out])
        assert result.exit_code == 2, result.output
        assert out in result.output

    @pytest.mark.parametrize("error,code,prefix", (
        (ParameterError, 2, "Error: "),
        (ResourceCapError, 3, "resource cap exceeded: "),
        (ContractError, 1, "invariant violated: "),
    ))
    @pytest.mark.parametrize("command", ("enumerate", "simulate"))
    def test_package_errors_map_to_exit_codes(self, runner, monkeypatch, command,
                                              error, code, prefix):
        def broken(*args):
            raise error("injected")

        monkeypatch.setattr("qvint.census.transform_census", broken)
        result = runner.invoke(main, [command, "--field", "3", "--vandermonde", "1",
                                      "--k", "1"])
        assert result.exit_code == code, result.output
        assert prefix + "injected" in result.output
        assert "Traceback" not in result.output

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0, result.output
        assert result.output == f"qvint, version {qvint.__version__}\n"


class TestResourceCaps:
    @pytest.mark.parametrize("args,vectors,stage", (
        (["enumerate", "--field", "11", "--vandermonde", "3", "--k", "3000"],
         None, "census"),
        (["enumerate", "--field", "11", "--vandermonde", "3", "--k", "2000000"],
         None, "census"),
        (["enumerate", "--k", "1"], (1, 20000), "census"),
        (["enumerate", "--k", "1", "--format", "csv"], (1, 20000), "census"),
        (["enumerate", "--k", "1"], (10, 23), "census"),
        (["simulate", "--k", "1"], (1, 70), "state over GF(2)^70"),
        (["simulate", "--field", "3", "--vandermonde", "1", "--k", "1",
          "--secret", "1,1", "--trials", str(simulator.MAX_TRIALS + 1)], None, "sampling"),
        (["analyze", "--field", "2", "--monomial", "2,3000"], None, "domain"),
        (["analyze", "--field", "2", "--vandermonde", "3000000"], None, "domain"),
    ), ids=("census-digits", "census-power", "identity-digits", "census-space",
            "census-residues",
            "state-secret", "trials", "monomial-entries", "vandermonde-entries"))
    def test_oversized_request_exits_three(self, runner, tmp_path, args, vectors, stage):
        if vectors is not None:
            args = args + ["--domain-file", binary_domain_file(tmp_path, *vectors)]
        started = time.perf_counter()
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert f"resource cap exceeded: {stage} needs" in result.output
        assert "Traceback" not in result.output
        # Refused before any census work.
        assert time.perf_counter() - started < 2

    def test_identity_runs_past_the_old_dot_product_cap(self, runner, tmp_path):
        # 2^20 points times 128 vectors is 1.3e8 dot products, over the 10^8
        # the direct count was capped at; the identity reads the census's N(t).
        report = run_json(runner, ["enumerate", "--k", "1", "--domain-file",
                                   binary_domain_file(tmp_path, 128, 20)])
        assert report["second_moment_identity"]["equal"] is True
        assert report["bounds"]["chebyshev_consistent"] is True


class TestReproducibility:
    def test_reports_are_byte_identical(self, runner):
        args = ["enumerate", "--field", "5", "--vandermonde", "3", "--k", "2"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_timings_are_opt_in(self, runner):
        base = ["analyze", "--field", "3", "--vandermonde", "1"]
        without = run_json(runner, base)
        with_timings = run_json(runner, base + ["--timings"])
        assert "timings" not in without
        assert "total_seconds" in with_timings["timings"]


class TestVerifyCommand:
    def test_corrupt_modulus_is_caught(self, runner, monkeypatch):
        # The irreducibility check is handed x^r in place of each extension
        # field's modulus.
        irreducible = verify_mod._is_irreducible
        monkeypatch.setattr(verify_mod, "_is_irreducible",
                            lambda modulus, p: irreducible((0,) * (len(modulus) - 1) + (1,), p))
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 1
        failed = [line for line in result.output.splitlines() if line.startswith("FAIL")]
        assert failed == [
            "FAIL  modulus-irreducible-q4: modulus (1, 1, 1) over GF(2) is reducible",
            "FAIL  modulus-irreducible-q8: modulus (1, 0, 1, 1) over GF(2) is reducible",
            "FAIL  modulus-irreducible-q9: modulus (1, 0, 1) over GF(3) is reducible",
        ]

    def test_fault_injection_is_not_a_verify_option(self, runner):
        # Faults are injected by the tests, never through the command line.
        result = runner.invoke(main, ["verify", "--inject-corrupt-modulus"])
        assert result.exit_code == 2
        assert "--inject-corrupt-modulus" in result.output

    def test_there_is_no_quick_grid(self, runner):
        # verify runs one grid; the full one takes well under a second.
        result = runner.invoke(main, ["verify", "--quick"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--quick" in result.output

    def test_max_tuples_is_not_a_verify_option(self, runner):
        # The verify grid is fixed, so a tuple cap could only make it fail.
        result = runner.invoke(main, ["verify", "--max-tuples", "10"])
        assert result.exit_code == 2
        assert "--max-tuples" in result.output


@pytest.mark.parametrize("args", (
    ["enumerate", "--field", "4", "--vandermonde", "2", "--k", "2"],
    ["simulate", "--field", "3", "--vandermonde", "1", "--k", "1", "--secret", "1,1"],
    ["analyze", "--field", "5", "--vandermonde", "3"],
    ["verify"],
), ids=lambda args: args[0])
def test_commands_leave_numpy_ma_unimported(args):
    # A fresh interpreter, as each command pays its own imports.
    src = os.path.dirname(os.path.dirname(qvint.__file__))
    script = ("import sys\nfrom qvint.cli import main\n"
              f"main({args!r}, standalone_mode=False)\n"
              "print('numpy.ma' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize("args", (
    ["verify"],
    ["simulate", "--field", "3", "--vandermonde", "1", "--k", "1", "--trials", "1000",
     "--seed", "5"],
), ids=("verify", "simulate-random-secret"))
def test_sampling_leaves_numpy_random_unimported(args):
    # Sampling and random secrets draw from the stdlib stream; numpy.random
    # costs about 5 MiB of RSS to import.
    src = os.path.dirname(os.path.dirname(qvint.__file__))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "qvint.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "qvint.simulator" in imported
    assert not [name for name in imported if name.split(".")[:2] == ["numpy", "random"]]
