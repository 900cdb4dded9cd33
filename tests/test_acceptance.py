"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Shared expensive artifacts (ladder sweeps, the FEM refinement run) are
computed once per session through AcceptanceContext.
"""

import pytest

from karcher import barycentric
from karcher.acceptance import (AcceptanceContext, check_connection_distortion_rate,
                                check_dx_sigma_rate, check_edge_and_submanifold,
                                check_edge_length_rate, check_fem_poisson,
                                check_flat_simplex_suite,
                                check_flat_space_exactness, check_jacobi_oracle,
                                check_metric_distortion_rate, check_nabla_dx_rate,
                                check_ode_bound)


@pytest.fixture(scope="session")
def ctx():
    return AcceptanceContext()


def report(result):
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.criterion}: "
          f"{result.detail}")
    assert result.passed, f"{result.criterion}: {result.detail}"


def test_criterion_01_metric_distortion_rate(ctx):
    report(check_metric_distortion_rate(ctx))


def test_criterion_02_connection_distortion_rate(ctx):
    report(check_connection_distortion_rate(ctx))


def test_criterion_03_dx_sigma_rate(ctx):
    report(check_dx_sigma_rate(ctx))


def test_criterion_04_nabla_dx_rate(ctx):
    report(check_nabla_dx_rate(ctx))


def test_criterion_05_flat_space_exactness(ctx):
    report(check_flat_space_exactness(ctx))


def test_flat_space_exactness_solves_each_mean_once(ctx, monkeypatch):
    # 3 charts x 4 weights: the Hessian jet is taken at the mean that
    # karcher_mean found, so no mean is solved a second time.
    calls = []
    batch_mean = barycentric._batch_mean
    monkeypatch.setattr(barycentric, "_batch_mean",
                        lambda *args: calls.append(1) or batch_mean(*args))
    assert check_flat_space_exactness(ctx).passed
    assert len(calls) == 12


def test_criterion_06_edge_and_submanifold(ctx):
    report(check_edge_and_submanifold(ctx))


def test_criterion_07_jacobi_oracle(ctx):
    report(check_jacobi_oracle(ctx))


def test_criterion_08_ode_bound(ctx):
    report(check_ode_bound(ctx))


def test_criterion_09_flat_simplex_suite(ctx):
    report(check_flat_simplex_suite(ctx))


def test_criterion_10_fem_poisson(ctx):
    report(check_fem_poisson(ctx))


def test_criterion_11_edge_length_rate(ctx):
    report(check_edge_length_rate(ctx))
