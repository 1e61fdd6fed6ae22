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
    """Counts of ``build_gram`` calls and of Matérn ``gram_pairs`` calls (the
    kernel part of a ``LevelSystem``) made while the test runs."""
    from misspec_krige import kriging
    from misspec_krige.kernels import MaternKernel

    calls = {"build_gram": 0, "gram_pairs": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(kriging, "build_gram")
    count(MaternKernel, "gram_pairs")
    return calls
