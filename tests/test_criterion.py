"""The three evaluation paths, the telescoping oracle, run_test, and sweep."""

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vantieghem.criterion as criterion
from vantieghem.criterion import (
    Path,
    Verdict,
    coset_partial_products,
    evaluate,
    product_closed,
    product_naive,
    product_structured,
    run_test,
    sweep,
    telescope_check,
)
from vantieghem.errors import DomainError, NotDivisible, PathUnavailable
from vantieghem.modmath import RepunitModulus, build_modulus
from vantieghem.oracle import product_bruteforce


class TestProductNaive:
    def test_mersenne_five(self):
        # 3*5*9*17 = 2295 = 74*31 + 1
        assert product_naive(build_modulus(2, 5)) == 1

    def test_base_three(self):
        # 4*10*28*82 = 91840 = 759*121 + 1
        assert product_naive(build_modulus(3, 5)) == 1

    def test_worked_example(self):
        assert product_naive(build_modulus(2, 89)) == 1

    def test_composite_nine(self):
        assert product_naive(build_modulus(2, 9)) == 74

    def test_composite_fifteen(self):
        assert product_naive(build_modulus(2, 15)) == 15101

    def test_matches_bruteforce_oracle(self):
        for p in range(3, 32, 2):
            for b in range(2, 6):
                assert product_naive(build_modulus(b, p)) == product_bruteforce(b, p)


class TestProductStructured:
    def test_single_coset(self):
        assert product_structured(build_modulus(2, 5)) == 1

    def test_two_cosets_with_unit_partials(self):
        rm = build_modulus(2, 7)
        partials = coset_partial_products(rm)
        assert partials == (1, 1)  # 3*5*17 = 255 and 9*65*33 = 19305, both 1 mod 127
        assert product_structured(rm) == 1

    def test_worked_example(self):
        assert product_structured(build_modulus(2, 89)) == 1

    def test_composite_p_rejected(self):
        # The cosets come from decompose(rm.p), which needs a prime.
        rm = build_modulus(2, 15)
        with pytest.raises(DomainError, match="odd prime, got 15"):
            product_structured(rm)
        with pytest.raises(DomainError, match="odd prime, got 15"):
            coset_partial_products(rm)

    def test_agrees_with_naive(self, odd_primes_1000):
        for p in odd_primes_1000:
            if p > 200:
                break
            for b in (2, 3, 10):
                rm = build_modulus(b, p)
                assert product_structured(rm) == product_naive(rm), (b, p)

    def test_per_coset_unity(self, odd_primes_1000):
        for p in odd_primes_1000:
            if p > 100:
                break
            rm = build_modulus(2, p)
            for partial in coset_partial_products(rm):
                assert partial == 1, p


class TestPowerOfTwoBases:
    # For b = 2**k both product paths run on the ring's rotation kernel, so
    # they are checked here against the closed form and the brute-force
    # product, which share no code with it.
    @pytest.mark.parametrize("b", [2, 4, 8, 16])
    def test_paths_against_closed_form_and_oracle(self, b, prime_flags):
        for p in range(max(3, b + 1) | 1, 200, 2):
            rm = build_modulus(b, p)
            naive = product_naive(rm)
            assert naive == product_closed(rm), (b, p)
            if p <= 64:
                assert naive == product_bruteforce(b, p), (b, p)
            if prime_flags[p]:
                assert product_structured(rm) == naive, (b, p)
                assert set(coset_partial_products(rm)) == {1}, (b, p)

    @pytest.mark.parametrize("b,reductions", [(4, 1), (8, 1), (3, 200), (10, 200)])
    def test_reductions_per_naive_product(self, b, reductions, monkeypatch):
        # One reduction mod M at the end for b = 2**k; one per multiplication
        # (two per factor) for other bases.
        calls = []
        reduce = RepunitModulus.reduce

        def counting(rm, x):
            calls.append(x)
            return reduce(rm, x)

        monkeypatch.setattr(RepunitModulus, "reduce", counting)
        product_naive(build_modulus(b, 101))
        assert len(calls) == reductions


# Known Mersenne-prime exponents (GIMPS list).
MERSENNE_PRIME_EXPONENTS = (9689, 9941, 11213, 19937, 21701, 23209)


class TestProductClosed:
    # The closed path against the naive path on every odd p < 400, composites
    # included, is acceptance criterion 12.

    def test_small_values(self):
        assert product_closed(build_modulus(2, 5)) == 1
        assert product_closed(build_modulus(3, 5)) == 1
        assert product_closed(build_modulus(2, 9)) == 74
        assert product_closed(build_modulus(2, 15)) == 15101

    def test_matches_bruteforce_oracle(self):
        for p in range(3, 32, 2):
            for b in range(2, 6):
                assert product_closed(build_modulus(b, p)) == product_bruteforce(b, p), (b, p)

    def test_prime_powers_and_many_divisors(self):
        for b, p in [(2, 27), (3, 81), (2, 105), (5, 225), (2, 315), (10, 243)]:
            rm = build_modulus(b, p)
            assert product_closed(rm) == product_naive(rm), (b, p)

    @pytest.mark.parametrize("b,p", [(2, q) for q in MERSENNE_PRIME_EXPONENTS] + [(3, 4423)])
    def test_unit_residue_at_large_primes_in_milliseconds(self, b, p):
        rm = build_modulus(b, p)
        t0 = time.perf_counter()
        residue = product_closed(rm)
        elapsed = time.perf_counter() - t0
        assert residue == 1
        assert elapsed < 0.05, elapsed

    # For a prime q | p, M_q = (b^q - 1)/(b - 1) divides M, and b^q == 1 mod
    # M_q, so the product is ((b+1)...(b^(q-1)+1) * 2)^(p/q) / 2 mod M_q (2 is
    # invertible, M_q being odd).  The inner product is 1 by the theorem at
    # the prime q, which leaves 2^(p/q - 1).  README's b = 2 converse lemma
    # rests on this: 2 has order q mod 2^q - 1.
    @pytest.mark.parametrize(
        "product, p_max, triples", [(product_closed, 400, 1462), (product_naive, 100, 268)]
    )
    def test_residue_mod_each_prime_factor_repunit(self, prime_flags, product, p_max, triples):
        checked = 0
        for p in range(9, p_max, 2):
            if prime_flags[p]:
                continue
            for b in (2, 3, 5, 7, 10, 12):
                if b > p - 1:
                    continue
                residue = product(build_modulus(b, p))
                for q in (q for q in range(3, p, 2) if p % q == 0 and prime_flags[q]):
                    m_q = (b**q - 1) // (b - 1)
                    assert residue % m_q == pow(2, p // q - 1, m_q), (b, p, q)
                    if b == 2:
                        assert (residue % m_q == 1) == ((p // q - 1) % q == 0), (p, q)
                    checked += 1
        assert checked == triples

    def test_inexact_division_raises(self):
        # A hand-built modulus whose M disagrees with B by one makes the
        # filter sum 8 at p = 7; the path must refuse it, not truncate.
        rm = build_modulus(3, 7)
        broken = RepunitModulus(b=3, p=7, M=rm.M + 1, B=rm.B)
        with pytest.raises(NotDivisible, match="7 does not divide 8"):
            product_closed(broken)


class TestTelescopeCheck:
    def test_examples(self):
        assert telescope_check(2, 3)  # 3*5*17 = 255 = (2**8 - 1)/1
        assert telescope_check(3, 2)  # 4*10 = 40 = (3**4 - 1)/2
        assert telescope_check(2, 1)  # 3 = (2**2 - 1)/1

    @given(x=st.integers(min_value=2, max_value=30), r=st.integers(min_value=1, max_value=8))
    @settings(deadline=None)
    def test_always_holds(self, x, r):
        assert telescope_check(x, r)


class TestEvaluate:
    def test_naive_only(self):
        residues, elapsed = evaluate(build_modulus(2, 9), Path.NAIVE)
        assert residues == {"naive": 74}
        assert set(elapsed) == {"naive"}

    def test_both_paths(self):
        residues, elapsed = evaluate(build_modulus(3, 7), Path.BOTH)
        assert residues == {"naive": 1, "structured": 1}
        assert list(elapsed) == ["naive", "structured"]

    def test_closed_needs_no_decomposition(self):
        residues, elapsed = evaluate(build_modulus(2, 15), Path.CLOSED)
        assert residues == {"closed": 15101}
        assert set(elapsed) == {"closed"}

    def test_inexact_division_names_b_p_and_path(self, monkeypatch):
        def inexact(rm):
            raise NotDivisible("7 does not divide 8")

        monkeypatch.setattr("vantieghem.criterion.product_closed", inexact)
        with pytest.raises(NotDivisible, match=r"closed path at b=3, p=7: 7 does not divide 8"):
            evaluate(build_modulus(3, 7), Path.CLOSED)


class TestRunTest:
    def test_worked_example_both_paths(self):
        report = run_test(2, 89, Path.BOTH)
        assert report.residue == 1
        assert report.verdict is Verdict.PRIME_CONSISTENT
        assert report.paths_agree is True
        assert report.modulus_digits == 27
        assert set(report.elapsed) == {"naive", "structured"}

    def test_composite_naive(self):
        report = run_test(2, 9, Path.NAIVE)
        assert report.residue == 74
        assert report.verdict is Verdict.COMPOSITE_INDICATED
        assert report.paths_agree is None
        assert set(report.elapsed) == {"naive"}

    def test_composite_fifteen(self):
        report = run_test(2, 15)
        assert report.residue != 1
        assert report.verdict is Verdict.COMPOSITE_INDICATED

    def test_closed_is_the_default_path(self):
        report = run_test(2, 15)
        assert report.path is Path.CLOSED
        assert report.residues == {"closed": 15101}
        assert report.residue == 15101
        assert report.paths_agree is None
        assert run_test(2, 89).to_record()["path"] == "closed"

    def test_structured_only(self):
        report = run_test(2, 31, Path.STRUCTURED)
        assert report.residue == 1
        assert set(report.elapsed) == {"structured"}

    def test_structured_needs_prime(self):
        with pytest.raises(PathUnavailable):
            run_test(2, 9, Path.STRUCTURED)
        with pytest.raises(PathUnavailable):
            run_test(2, 15, Path.BOTH)

    @pytest.mark.parametrize("b,p", [(1, 5), (2, 4), (2, 1)])
    def test_rejects_out_of_domain(self, b, p):
        with pytest.raises(DomainError):
            run_test(b, p)

    def test_large_base_needs_opt_in(self):
        with pytest.raises(DomainError):
            run_test(5, 3)
        report = run_test(5, 3, allow_large_base=True)
        assert report.residue == 1  # (5+1)(25+1) = 156 = 5*31 + 1

    def test_residue_below_modulus(self):
        for p in (9, 15, 21, 25, 27):
            report = run_test(2, p)
            assert 0 <= report.residue < build_modulus(2, p).M
            assert (report.verdict is Verdict.PRIME_CONSISTENT) == (report.residue == 1)

    def test_record_serializes_integers_as_strings(self):
        record = run_test(2, 89, Path.BOTH).to_record()
        assert record["b"] == "2"
        assert record["p"] == "89"
        assert record["residue"] == "1"
        assert record["modulus_digits"] == "27"
        assert record["verdict"] == "prime-consistent"
        assert record["path"] == "both"
        assert record["paths_agree"] is True
        assert set(record["elapsed"]) == {"naive", "structured"}


def _counting(fn, calls):
    """A product path fn, recording the modulus of each call in calls."""

    def wrapper(rm):
        calls.append(rm)
        return fn(rm)

    return wrapper


class TestSweep:
    def test_base_two_up_to_200(self, prime_flags):
        report = sweep(3, 200, [2])
        assert report.failures() == ()
        assert report.mismatches() == ()
        assert report.anomalies() == ()
        assert len(report.entries) == len(range(3, 201, 2))
        for e in report.entries:
            assert e.prime == bool(prime_flags[e.p])
            assert e.residue_one == e.prime
            assert e.paths_agree is (True if e.prime else None)

    def test_single_entry(self):
        report = sweep(3, 3, [2])
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert (entry.p, entry.b, entry.prime, entry.residue_one) == (3, 2, True, True)

    def test_empty_range(self):
        assert sweep(10, 9, [2]).entries == ()

    def test_bases_below_two_are_ignored(self):
        report = sweep(3, 9, [0, 1, 2, 2])
        assert report.bases == (2,)

    def test_large_bases_skipped_without_opt_in(self):
        report = sweep(3, 7, [10])
        assert report.entries == ()
        opted = sweep(3, 7, [10], allow_large_base=True)
        assert [e.p for e in opted.entries] == [3, 5, 7]

    def test_entries_ordered_by_p_then_b(self):
        report = sweep(3, 30, [5, 2, 3])
        keys = [(e.p, e.b) for e in report.entries]
        assert keys == sorted(keys)

    def test_composites_run_the_closed_path_alone(self, monkeypatch):
        closed = []

        def no_naive(rm):
            raise AssertionError(f"naive path ran at b={rm.b}, p={rm.p}")

        monkeypatch.setattr(criterion, "product_naive", no_naive)
        monkeypatch.setattr(criterion, "product_closed", _counting(product_closed, closed))
        report = sweep(25, 27, [2, 3, 5])
        pairs = [(e.p, e.b) for e in report.entries]
        assert pairs == [(25, 2), (25, 3), (25, 5), (27, 2), (27, 3), (27, 5)]
        assert [(rm.p, rm.b) for rm in closed] == pairs
        assert all(e.paths_agree is None and not e.residue_one for e in report.entries)

    def test_primes_run_naive_and_structured(self, monkeypatch):
        naive, structured = [], []

        def no_closed(rm):
            raise AssertionError(f"closed path ran at b={rm.b}, p={rm.p}")

        monkeypatch.setattr(criterion, "product_closed", no_closed)
        monkeypatch.setattr(criterion, "product_naive", _counting(product_naive, naive))
        monkeypatch.setattr(criterion, "product_structured", _counting(product_structured, structured))
        report = sweep(11, 13, [2, 3, 5])
        pairs = [(e.p, e.b) for e in report.entries]
        assert pairs == [(11, 2), (11, 3), (11, 5), (13, 2), (13, 3), (13, 5)]
        assert [(rm.p, rm.b) for rm in naive] == pairs
        assert [(rm.p, rm.b) for rm in structured] == pairs
        assert all(e.paths_agree is True and e.residue_one for e in report.entries)

    def test_record_shape(self):
        record = sweep(3, 9, [2]).to_record()
        assert record["total"] == "4"
        assert record["agreements"] == "4"
        assert record["disagreements"] == "0"
        assert record["failures"] == []


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.usefixtures("two_cpus")
class TestSweepShares:
    # Window 3..31: share 0 = [7, 9, 15, 17, 23, 25, 31] runs in this
    # process, share 1 = [3, 5, 11, 13, 19, 21, 27, 29] in one child.
    WINDOW = (3, 31)

    def test_deal_is_snake_wise_from_the_largest_p(self):
        assert criterion._deal(range(3, 32, 2), 2) == [
            [7, 9, 15, 17, 23, 25, 31],
            [3, 5, 11, 13, 19, 21, 27, 29],
        ]
        assert criterion._deal(range(3, 20, 2), 3) == [[7, 9, 19], [5, 11, 17], [3, 13, 15]]

    @pytest.mark.parametrize("hi", [3, 5, 31, 100, 301])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 7])
    def test_deal_partitions(self, hi, jobs):
        ps = range(3, hi + 1, 2)
        shares = criterion._deal(ps, jobs)
        assert len(shares) == jobs
        assert sorted(p for share in shares for p in share) == list(ps)
        assert all(share == sorted(share) for share in shares)
        assert max(map(len, shares)) - min(map(len, shares)) <= 1

    def test_jobs_below_one_rejected(self):
        with pytest.raises(DomainError, match="jobs must be >= 1, got 0"):
            sweep(3, 9, [2], jobs=0)

    def test_shares_capped_at_usable_cpus_and_odd_p(self, forks):
        assert sweep(*self.WINDOW, [2, 3], jobs=64) == sweep(*self.WINDOW, [2, 3])
        assert len(forks) == 1
        assert sweep(3, 4, [2], jobs=2) == sweep(3, 4, [2])
        assert len(forks) == 1

    def test_interrupt_right_after_a_fork_reaps_the_child(self, monkeypatch, forks):
        fork = os.fork

        def fork_then_interrupt():
            pid = fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", fork_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            sweep(*self.WINDOW, [2], jobs=2)
        assert len(forks) == 1 and _reaped(forks[0])

    def test_interrupt_right_after_a_reap_is_what_is_raised(self, monkeypatch, forks):
        waitpid = os.waitpid

        def reap_then_interrupt(pid, options):
            reaped = waitpid(pid, options)
            os.kill(os.getpid(), signal.SIGINT)
            return reaped

        monkeypatch.setattr(os, "waitpid", reap_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            sweep(*self.WINDOW, [2], jobs=2)
        monkeypatch.setattr(os, "waitpid", waitpid)
        assert len(forks) == 1 and _reaped(forks[0])

    def test_without_fork_runs_serially(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert sweep(*self.WINDOW, [2, 3], jobs=2) == sweep(*self.WINDOW, [2, 3])

    @pytest.mark.parametrize(
        "in_child, message",
        [
            (lambda: os._exit(3), "exited with status 3 before sending its entries"),
            (lambda: 1 / 0, "ZeroDivisionError in sweep worker"),
        ],
    )
    def test_child_failure_raises(self, monkeypatch, forks, in_child, message):
        parent = os.getpid()
        real = criterion.product_naive

        def fails_in_child(rm):
            if os.getpid() != parent:
                in_child()
            return real(rm)

        monkeypatch.setattr(criterion, "product_naive", fails_in_child)
        with pytest.raises(RuntimeError, match=message):
            sweep(*self.WINDOW, [2], jobs=2)
        assert len(forks) == 1 and _reaped(forks[0])

    def test_parent_failure_kills_and_reaps_the_child(self, monkeypatch, forks):
        # KeyboardInterrupt, the other case, is in test_cli's TestSweepCPUs.
        parent = os.getpid()
        real = criterion.product_naive

        def parent_fails_child_stalls(rm):
            if os.getpid() != parent:
                time.sleep(60)
            elif rm.p == 7:
                raise DomainError("no ring here")
            return real(rm)

        monkeypatch.setattr(criterion, "product_naive", parent_fails_child_stalls)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="no ring here"):
            sweep(*self.WINDOW, [2], jobs=2)
        assert time.perf_counter() - t0 < 10
        assert len(forks) == 1 and _reaped(forks[0])
