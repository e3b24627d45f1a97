"""Command-line surface: flags, exit codes, text and structured output."""

import json
import os
import re
import time

import pytest
from test_criterion import MERSENNE_PRIME_EXPONENTS

import vantieghem.cli as cli
import vantieghem.cosets as cosets
import vantieghem.criterion as criterion
from vantieghem import golden
from vantieghem.cli import main
from vantieghem.errors import DomainError, NotDivisible


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counting(fn, calls):
    """fn, recording each argument in calls."""

    def wrapper(arg):
        calls.append(arg)
        return fn(arg)

    return wrapper


@pytest.fixture
def decompositions(monkeypatch):
    """The p of every coset decomposition computed, in order.

    Counted as cosets.mult_order calls, the work inside decompose, so memo
    hits do not count; the memo is cleared first.
    """
    calls = []
    mult_order = cosets.mult_order

    def counted(g, p):
        calls.append(p)
        return mult_order(g, p)

    cosets.decompose.cache_clear()
    monkeypatch.setattr(cosets, "mult_order", counted)
    return calls


class TestTestCommand:
    def test_worked_example_both_paths(self, capsys):
        code, out, _ = run_cli(capsys, "test", "--p", "89", "--b", "2", "--path", "both")
        assert code == 0
        assert "residue: 1" in out
        assert "verdict: prime-consistent" in out
        assert "paths agree: yes" in out

    def test_composite_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "test", "--p", "9", "--b", "2")
        assert code == 1
        assert "residue: 74" in out
        assert "composite-indicated" in out

    def test_even_exponent_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "test", "--p", "4", "--b", "2")
        assert code == 2
        assert "error:" in err

    def test_structured_on_composite_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "test", "--p", "9", "--b", "2", "--path", "structured")
        assert code == 2
        assert "structured path requires" in err

    def test_both_on_composite_exits_two_before_any_path(self, capsys, monkeypatch):
        monkeypatch.setattr(criterion, "product_naive", lambda rm: pytest.fail("naive path ran"))
        code, out, err = run_cli(capsys, "test", "--p", "15", "--b", "2", "--path", "both")
        assert code == 2
        assert out == ""
        assert err == "error: structured path requires an odd prime p, got composite 15\n"

    def test_large_base_gate(self, capsys):
        code, _, _ = run_cli(capsys, "test", "--p", "3", "--b", "5")
        assert code == 2
        code, out, _ = run_cli(capsys, "test", "--p", "3", "--b", "5", "--allow-large-base")
        assert code == 0
        assert "residue: 1" in out

    def test_structured_record_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--p", "89", "--b", "2", "--path", "both",
            "--output-format", "structured-record",
        )
        assert code == 0
        record = json.loads(out)
        assert record["residue"] == "1"
        assert record["paths_agree"] is True
        assert isinstance(record["elapsed"]["naive"], float)

    def test_missing_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "test", "--p", "89")
        assert code == 2

    def test_closed_path_is_default(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--p", "15", "--b", "2", "--output-format", "structured-record"
        )
        assert code == 1
        record = json.loads(out)
        assert record["path"] == "closed"
        assert record["residue"] == "15101"
        assert record["paths_agree"] is None
        assert set(record["elapsed"]) == {"closed"}

    def test_closed_path_on_prime(self, capsys):
        code, out, _ = run_cli(capsys, "test", "--p", "89", "--b", "3", "--path", "closed")
        assert code == 0
        assert "path: closed" in out
        assert "residue: 1" in out

    def test_modulus_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--p", "1279", "--b", "10", "--output-format", "structured-record"
        )
        assert code == 0
        assert json.loads(out)["modulus_digits"] == "1279"


class TestMersennePrimeExponents:
    @pytest.mark.parametrize("p", MERSENNE_PRIME_EXPONENTS)
    def test_both_product_paths_give_one(self, capsys, p):
        code, out, _ = run_cli(
            capsys, "test", "--b", "2", "--p", str(p), "--path", "both",
            "--output-format", "structured-record",
        )
        record = json.loads(out)
        assert (code, record["residue"], record["paths_agree"]) == (0, "1", True)

    def test_both_paths_at_9941_under_300_ms(self, capsys):
        # A loose guard: the rotation kernel takes tens of milliseconds here,
        # full-size multiplies about half a second.
        t0 = time.perf_counter()
        code, _, _ = run_cli(
            capsys, "test", "--b", "2", "--p", "9941", "--path", "both",
            "--output-format", "structured-record",
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 0.3, elapsed


class TestOutputFormats:
    # _emit builds only the requested format: a residue's str() is quadratic.
    def test_structured_record_never_formats_text(self, capsys, monkeypatch):
        def refuse(report):
            raise AssertionError("text formatted for a structured record")

        monkeypatch.setattr(cli, "_format_test_report", refuse)
        code, out, _ = run_cli(
            capsys, "test", "--b", "2", "--p", "7", "--path", "both",
            "--output-format", "structured-record",
        )
        assert code == 0
        assert json.loads(out)["residue"] == "1"

    def test_text_never_builds_record(self, capsys, monkeypatch):
        def refuse(report):
            raise AssertionError("record built for text output")

        monkeypatch.setattr(criterion.TestReport, "to_record", refuse)
        assert run_cli(capsys, "test", "--b", "2", "--p", "7", "--path", "both")[0] == 0

    def test_text_output_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "test", "--b", "2", "--p", "7", "--path", "both")
        assert code == 0
        assert re.sub(r"\d+\.\d{3} ms", "T ms", out) == (
            "b: 2\np: 7\nmodulus digits: 3\npath: both\nresidue: 1\n"
            "verdict: prime-consistent\npaths agree: yes\nnaive: T ms\nstructured: T ms\n"
        )


class TestErrorMapping:
    def test_inexact_division_exits_one(self, capsys, monkeypatch):
        def inexact(rm):
            raise NotDivisible("15 does not divide 16")

        monkeypatch.setattr(criterion, "product_closed", inexact)
        code, out, err = run_cli(capsys, "test", "--p", "15", "--b", "2")
        assert code == 1
        assert out == ""
        assert err == "error: closed path at b=2, p=15: 15 does not divide 16\n"

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(rm):
            raise KeyboardInterrupt

        monkeypatch.setattr(criterion, "product_closed", interrupted)
        code, _, err = run_cli(capsys, "test", "--p", "15", "--b", "2")
        assert code == 130
        assert err == "error: interrupted\n"


class TestCosetsCommand:
    def test_worked_example_table(self, capsys):
        code, out, _ = run_cli(capsys, "cosets", "--p", "89")
        assert code == 0
        assert "r = 11, k = 8" in out
        assert "reps: 1, 3, 5, 9, 11, 13, 19, 33" in out
        for coset in golden.COSETS:
            assert "{" + ", ".join(str(e) for e in coset) + "}" in out

    def test_single_coset(self, capsys):
        code, out, _ = run_cli(capsys, "cosets", "--p", "5")
        assert code == 0
        assert "A_1 = {1, 2, 4, 3}" in out

    def test_composite_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "cosets", "--p", "9")
        assert code == 2
        assert "odd prime" in err

    def test_structured_record(self, capsys):
        code, out, _ = run_cli(capsys, "cosets", "--p", "7", "--output-format", "structured-record")
        assert code == 0
        record = json.loads(out)
        assert record["cosets"] == [["1", "2", "4"], ["3", "6", "5"]]


class TestSweepCommand:
    def test_base_two_clean(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p-min", "3", "--p-max", "200", "--bases", "2")
        assert code == 0
        assert "disagreements: 0" in out

    def test_multiple_bases(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p-min", "3", "--p-max", "200", "--bases", "2,3,5")
        assert code == 0
        assert "disagreements: 0" in out

    def test_empty_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--p-min", "10", "--p-max", "9", "--bases", "2")
        assert code == 2
        assert "empty range" in err

    def test_bad_base_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--p-min", "3", "--p-max", "9", "--bases", "1")
        assert code == 2

    def test_per_p_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p-min", "3", "--p-max", "9", "--bases", "2", "--per-p"
        )
        assert code == 0
        assert "p=9 b=2 prime=n residue_one=n ok" in out

    def test_structured_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p-min", "3", "--p-max", "30", "--bases", "2",
            "--output-format", "structured-record",
        )
        assert code == 0
        record = json.loads(out)
        assert record["disagreements"] == "0"
        assert "entries" not in record  # only included with --per-p

    def test_decomposes_once_per_prime(self, capsys, decompositions, prime_flags, one_cpu):
        # Counted in this process, so the sweep runs serially.
        code, _, _ = run_cli(capsys, "sweep", "--p-min", "3", "--p-max", "301", "--bases", "2,3,5,7,10,12")
        assert code == 0
        assert decompositions == [p for p in range(3, 302, 2) if prime_flags[p]]


SWEEP_WINDOW = ("--p-min", "3", "--p-max", "301", "--bases", "2,3,5,7,10,12")
STRUCTURED = ("--output-format", "structured-record")


class TestSweepCPUs:
    @pytest.mark.parametrize("n, children", [(1, 0), (2, 1)])
    def test_forks_one_child_per_extra_cpu(self, capsys, cpus, forks, n, children):
        cpus(n)
        assert run_cli(capsys, "sweep", *SWEEP_WINDOW)[0] == 0
        assert len(forks) == children

    def test_shares_are_the_usable_cpus(self, capsys, monkeypatch):
        seen = []

        def recording(*args, jobs, **kwargs):
            seen.append(jobs)
            return criterion.sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "sweep", recording)
        assert run_cli(capsys, "sweep", "--p-min", "3", "--p-max", "9", "--bases", "2")[0] == 0
        assert seen == [3]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", *SWEEP_WINDOW),
            ("sweep", *SWEEP_WINDOW, "--per-p"),
            ("sweep", *SWEEP_WINDOW, *STRUCTURED),
            *(
                ("sweep", "--p-min", p_min, *SWEEP_WINDOW[2:], "--per-p", *STRUCTURED)
                for p_min in ("3", "5", "7", "9", "11", "13")
            ),
            ("sweep", "--p-min", "3", "--p-max", "3", "--bases", "2", "--per-p"),
            ("sweep", "--p-min", "10", "--p-max", "9", "--bases", "2"),
        ],
    )
    def test_two_cpus_match_one(self, capsys, cpus, argv):
        cpus(1)
        serial = run_cli(capsys, *argv)
        cpus(2)
        assert run_cli(capsys, *argv) == serial

    @pytest.mark.parametrize(
        "error, code, message",
        [
            (DomainError("no ring here"), 2, "error: no ring here\n"),
            (
                NotDivisible("13 does not divide 14"),
                1,
                "error: naive path at b=2, p=13: 13 does not divide 14\n",
            ),
        ],
    )
    def test_child_error_exits_as_serial(self, capsys, monkeypatch, cpus, forks, error, code, message):
        assert 13 in criterion._deal(range(3, 32, 2), 2)[1]  # the child's share
        real = criterion.product_naive

        def fails_at_13(rm):
            if rm.p == 13:
                raise error
            return real(rm)

        monkeypatch.setattr(criterion, "product_naive", fails_at_13)
        argv = ("sweep", "--p-min", "3", "--p-max", "31", "--bases", "2")
        cpus(1)
        serial = run_cli(capsys, *argv)
        assert serial == (code, "", message)
        cpus(2)
        assert run_cli(capsys, *argv) == serial
        assert len(forks) == 1

    @pytest.mark.usefixtures("two_cpus")
    def test_interrupt_in_parent_exits_130_and_reaps(self, capsys, monkeypatch, forks):
        parent = os.getpid()
        real = criterion.product_naive

        def interrupted_here_stalled_there(rm):
            if os.getpid() != parent:
                time.sleep(60)
            elif rm.p == 7:
                raise KeyboardInterrupt
            return real(rm)

        monkeypatch.setattr(criterion, "product_naive", interrupted_here_stalled_there)
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, "sweep", "--p-min", "3", "--p-max", "31", "--bases", "2")
        assert (code, err) == (130, "error: interrupted\n")
        assert time.perf_counter() - t0 < 10
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)


class TestLemmaCommand:
    def test_up_to_thirty(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "--m-max", "30")
        assert code == 0
        assert "29 checked, all hold" in out

    def test_minimal(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "--m-max", "2")
        assert code == 0
        assert "m=2: ok" in out

    def test_below_two_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "lemma", "--m-max", "1")
        assert code == 2

    def test_one_polynomial_per_index(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cyclotomic_poly", counting(cli.cyclotomic_poly, calls))
        code, out, _ = run_cli(capsys, "lemma", "--m-max", "6")
        assert code == 0
        assert calls == [2, 3, 4, 5, 6]
        assert "m=6: ok  X^2 - X + 1" in out


class TestPaperExampleCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "paper-example")
        assert code == 0
        assert "fixture match: yes" in out
        assert "naive residue: 1" in out
        assert "structured residue: 1" in out

    def test_structured_record(self, capsys):
        code, out, _ = run_cli(capsys, "paper-example", "--output-format", "structured-record")
        assert code == 0
        record = json.loads(out)
        assert record["fixture_match"] is True
        assert record["decomposition"]["reps"] == ["1", "3", "5", "9", "11", "13", "19", "33"]

    def test_decomposes_once(self, capsys, decompositions):
        assert run_cli(capsys, "paper-example")[0] == 0
        assert decompositions == [89]

    def test_tampered_fixture_exits_one(self, capsys, monkeypatch):
        tampered = golden.COSETS[:-1] + ((33, 66, 43, 86, 83, 77, 65, 41, 82, 75, 60),)
        monkeypatch.setattr(golden, "COSETS", tampered)
        code, out, _ = run_cli(capsys, "paper-example")
        assert code == 1
        assert "fixture match: NO" in out


class TestBenchCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--p", "89", "--reps", "3")
        assert code == 0
        assert "paths agree: yes" in out
        assert "residue: 1" in out
        assert "reduce (fold)" in out
        assert "reduce (generic)" in out

    def test_decomposes_once(self, capsys, decompositions):
        assert run_cli(capsys, "bench", "--p", "89", "--reps", "3")[0] == 0
        assert decompositions == [89]

    def test_composite_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--p", "91")
        assert code == 2
        assert "odd prime" in err

    def test_large_base_gate(self, capsys):
        assert run_cli(capsys, "bench", "--p", "3", "--b", "5")[0] == 2
        assert run_cli(capsys, "bench", "--p", "3", "--b", "5", "--allow-large-base")[0] == 0

    def test_zero_reps_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--p", "89", "--reps", "0")
        assert code == 2

    def test_non_mersenne_base_skips_reduction_table(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--p", "11", "--b", "3", "--reps", "2")
        assert code == 0
        assert "reduce (fold)" not in out

    def test_structured_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--p", "89", "--reps", "2", "--output-format", "structured-record"
        )
        assert code == 0
        record = json.loads(out)
        assert record["paths_agree"] is True
        assert record["reductions_agree"] is True
        assert record["residue"] == "1"


class TestOneKernel:
    # Every command gets its residues from criterion.evaluate, which looks the
    # product paths up as module globals; a broken structured path must
    # therefore show in each of them, and a broken closed path in the sweep's
    # composites.
    @pytest.fixture
    def broken_structured_path(self, monkeypatch):
        monkeypatch.setattr("vantieghem.criterion.product_structured", lambda rm: 2)

    @pytest.mark.usefixtures("broken_structured_path")
    def test_test_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--p", "89", "--b", "2", "--path", "both",
            "--output-format", "structured-record",
        )
        assert code == 1
        assert json.loads(out)["paths_agree"] is False

    @pytest.mark.usefixtures("broken_structured_path")
    def test_paper_example(self, capsys):
        code, out, _ = run_cli(capsys, "paper-example", "--output-format", "structured-record")
        assert code == 1
        assert json.loads(out)["structured_residue"] == "2"

    @pytest.mark.usefixtures("broken_structured_path")
    def test_bench(self, capsys):
        assert run_cli(capsys, "bench", "--p", "89", "--reps", "1")[0] == 1

    @pytest.mark.usefixtures("broken_structured_path")
    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p-min", "3", "--p-max", "11", "--bases", "2",
            "--output-format", "structured-record",
        )
        assert code == 1
        assert [e["p"] for e in json.loads(out)["failures"]] == ["3", "5", "7", "11"]

    def test_sweep_closed_path(self, capsys, monkeypatch):
        monkeypatch.setattr("vantieghem.criterion.product_closed", lambda rm: 1)
        code, out, _ = run_cli(
            capsys, "sweep", "--p-min", "3", "--p-max", "15", "--bases", "2",
            "--output-format", "structured-record",
        )
        assert code == 1
        assert [e["p"] for e in json.loads(out)["failures"]] == ["9", "15"]


class TestDeterminism:
    # Commands without timing fields must emit byte-identical records on
    # repeated runs with the same inputs.
    @pytest.mark.parametrize(
        "argv",
        [
            ("cosets", "--p", "89"),
            ("sweep", "--p-min", "3", "--p-max", "60", "--bases", "3,2", "--per-p"),
            ("lemma", "--m-max", "12"),
            ("paper-example",),
        ],
    )
    def test_structured_record_stable_across_runs(self, capsys, argv):
        args = (*argv, "--output-format", "structured-record")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command_exits_two(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_bad_integer_exits_two(self, capsys):
        assert run_cli(capsys, "test", "--p", "eleven", "--b", "2")[0] == 2
