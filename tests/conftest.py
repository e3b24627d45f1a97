"""Shared fixtures: an independent sieve for choosing primes and composites,
and fork accounting for the sweep's shares.

The sieve is implemented here, not imported from the package, so tests that
cross-check the package's trial-division oracle really are independent.
"""

import os

import pytest

import vantieghem.cli as cli
import vantieghem.criterion as criterion


def sieve_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return flags


@pytest.fixture(scope="session")
def prime_flags() -> bytearray:
    return sieve_flags(100_000)


@pytest.fixture(scope="session")
def odd_primes_1000(prime_flags) -> list[int]:
    return [n for n in range(3, 1001, 2) if prime_flags[n]]


@pytest.fixture(scope="session")
def odd_primes_500(odd_primes_1000) -> list[int]:
    return [p for p in odd_primes_1000 if p <= 500]


@pytest.fixture(scope="session")
def odd_composites_500(prime_flags) -> list[int]:
    return [n for n in range(3, 501, 2) if not prime_flags[n]]


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked, in order.

    A fork beyond criterion.usable_cpus() - 1 fails the test instead of
    starting a process, so a broken cap cannot start many.
    """
    pids = []
    fork = os.fork

    def counted():
        if len(pids) >= criterion.usable_cpus() - 1:
            pytest.fail(f"fork number {len(pids) + 1} with {criterion.usable_cpus()} usable CPUs")
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the sweep's cap and the CLI's share count n, whatever
    the host has."""

    def usable(n: int) -> None:
        for module in (criterion, cli):
            monkeypatch.setattr(module, "usable_cpus", lambda: n)

    return usable


@pytest.fixture
def one_cpu(cpus):
    """The sweep runs serially, in this process."""
    cpus(1)


@pytest.fixture
def two_cpus(cpus):
    """The sweep runs in two shares: this process and one child."""
    cpus(2)
