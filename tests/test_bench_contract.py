"""The package as the benchmark calls it.

``perfbench/workloads.py`` builds families with ``FactorFamily(a_list=...)``
and calls ``to_weak_factorization``, ``verify_factorization(phi, fam, triple,
lower)``, ``s1_norm_schur(..., restarts=20)`` and the CLI in process.  These
tests run one cycle of each workload through the benchmark's own code, so an
API break fails here rather than only in a benchmark run.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads imports its sibling module reference
    import workloads
    return workloads


def test_schur_certify_cycle(workloads):
    failures = []
    for task in workloads.SchurCertify().cycle(seed=3, c=0):
        task.prepare()
        ck = workloads.Check()
        task.check(task.run(), ck)
        failures += ck.failures
    assert failures == []


def test_cli_session_exit_codes(workloads, tmp_path):
    session = workloads.CliSession()
    session.setup(3, str(tmp_path))
    session.prepare_run()
    for name, _, code in session.commands():
        assert session.expected[name][0] == code, name
