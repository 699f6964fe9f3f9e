"""The acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion through the same code path as the CLI
selftest and prints its pass/fail line; the determinism criterion reruns
the whole selftest in subprocesses and byte-compares the output.
"""

import subprocess
import sys

import numpy as np
import pytest

from bernshift import LOG2, run_recursion
from bernshift.selftest import (
    c01_ow_exact_pushforward,
    c02_ow_additivity,
    c03_timar_stabilization,
    c04_star_marginal,
    c05_star_entropy_identity,
    c06_solver_residual,
    c07_recursion_termination,
    c08_cocycle_identity,
    c09_coset_conjugacy,
    c10_equivariance_suite,
    c11_thread_determinism,
)

from oracles import solve_p_oracle

SEED = 7


def _report(result):
    print(result.line())
    return result


def test_criterion_01_ow_exact_pushforward():
    res = _report(c01_ow_exact_pushforward(SEED, threads=1))
    assert res.passed
    assert res.detail["total"] == 131072
    assert res.detail["n_patterns"] == 1024
    assert res.detail["expected_count"] == 128
    assert res.detail["max_deviation"] == 0.0
    # wall-clock time is no part of a verdict
    assert "runtime_under_10s" not in res.detail


def test_criterion_02_ow_additivity():
    res = _report(c02_ow_additivity(SEED, threads=1))
    assert res.passed
    assert res.detail["maps_zero_to_zero"]
    assert res.detail["basis_decomposition_exact"]
    assert res.detail["random_pairs_exact"]


def test_criterion_03_timar_stabilization():
    res = _report(c03_timar_stabilization(SEED, threads=1))
    assert res.passed
    assert res.detail["trials"] == 200
    assert all(v == 0 for v in res.detail["plane_mismatches"].values())


def test_criterion_04_star_marginal():
    res = _report(c04_star_marginal(SEED, threads=1))
    assert res.passed
    assert res.detail["samples"] == 10**6
    assert res.detail["tv_distance"] <= 0.004
    assert res.detail["truncation_rate"] < 1e-4


def test_criterion_05_star_entropy_identity():
    res = _report(c05_star_entropy_identity(SEED, threads=1))
    assert res.passed
    assert res.detail["worst_gap"] <= 1e-12


def test_criterion_06_solver():
    res = _report(c06_solver_residual(SEED, threads=1))
    assert res.passed
    assert res.detail["worst_residual"] < 1e-10
    assert res.detail["strictly_increasing"]


def test_criterion_07_recursion_termination():
    res = _report(c07_recursion_termination(SEED, threads=1))
    assert res.passed
    assert res.detail["H0_0.5_steps"] == 2
    # recompute the trace with the independent brentq oracle
    H, hs = 0.5, [0.5]
    while H < LOG2:
        H = H + 2 * solve_p_oracle(H) * LOG2
        hs.append(H)
    assert np.allclose(res.detail["H0_0.5_trace"], hs, atol=1e-12)
    assert np.allclose(hs, (0.5, 0.5966, 0.7214), atol=1e-3)
    assert run_recursion(0.5).terminated


def test_criterion_08_cocycle_identity():
    res = _report(c08_cocycle_identity(SEED, threads=1))
    assert res.passed
    assert res.detail["trials"] == 10000 and res.detail["failures"] == 0


def test_criterion_09_coset_conjugacy():
    res = _report(c09_coset_conjugacy(SEED, threads=1))
    assert res.passed
    assert res.detail["roundtrip_trials"] == 500
    assert res.detail["roundtrip_failures"] == 0
    assert res.detail["pushforward_max_deviation"] == 0.0


def test_criterion_10_equivariance_suite():
    res = _report(c10_equivariance_suite(SEED, threads=1))
    assert res.passed
    assert set(res.detail) == {"ow", "timar:3", "star:0.25", "coinduced:identity_U2", "coinduced:swap"}
    for entry in res.detail.values():
        assert entry["trials"] == 1000 and entry["failures"] == 0


def _run_selftest_cli(threads: int) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "bernshift", "selftest", "--seed", str(SEED), "--threads", str(threads)],
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout.decode()[-2000:]
    return proc.stdout


@pytest.mark.slow
def test_criterion_11_selftest_determinism():
    res = _report(c11_thread_determinism(SEED, threads=1))
    assert res.passed
    first = _run_selftest_cli(threads=1)
    second = _run_selftest_cli(threads=1)
    threaded = _run_selftest_cli(threads=4)
    assert first == second, "selftest output differs between identical invocations"
    assert first == threaded, "selftest output differs between thread counts 1 and 4"
    print("criterion 11 selftest_byte_identical: PASS")
