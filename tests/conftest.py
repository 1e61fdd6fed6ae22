"""Shared pytest wiring: prints the acceptance checklist after the run, and
counts the kernel work of a test."""

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import ACCEPTANCE_LOG
    except ImportError:
        return
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LOG:
        terminalreporter.write_line(line)


@pytest.fixture
def kernel_work(monkeypatch):
    """Counts of ``build_gram`` calls, of Matérn ``gram_pairs`` calls (the
    kernel part of a ``LevelSystem``) and of ``ProfileKernel._evaluate`` calls
    (one pass of a profile kernel over its statistic entries) made while the
    test runs."""
    from misspec_krige import kriging
    from misspec_krige.kernels import MaternKernel
    from misspec_krige.kernels.base import ProfileKernel

    calls = {"build_gram": 0, "gram_pairs": 0, "_evaluate": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(kriging, "build_gram")
    count(MaternKernel, "gram_pairs")
    count(ProfileKernel, "_evaluate")
    return calls


@pytest.fixture(params=[1, 2, 3])
def split_blocks(request, monkeypatch):
    """Every block of two or more rows or chunks split over ``request.param``
    threads (``MISSPEC_KRIGE_THREADS``).  The value is a dict: ``threads``,
    and ``handed``, one entry per block handed to the pool, so a test can
    check that its blocks really split."""
    from misspec_krige.kernels import base

    handed = []
    block_pool = base._block_pool

    def recorded():
        handed.append(request.param)
        return block_pool()
    monkeypatch.setattr(base, "_SPLIT_FROM", 1)
    monkeypatch.setattr(base, "_block_pool", recorded)
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", str(request.param))
    return {"threads": request.param, "handed": handed}
