"""Qualitative shape checks for the malaria system (slower, grid-based)."""

import numpy as np
import pytest

from choicedyn import models
from choicedyn.setdyn import (
    PointCloud,
    compute_K,
    directed_distance,
    hausdorff,
    individual_attractor,
)
from choicedyn.symbolic import UPString

DELTA = 0.01


@pytest.fixture(scope="module")
def malaria():
    return models.malaria_model()


@pytest.fixture(scope="module")
def K(malaria):
    report = compute_K(malaria, delta=DELTA)
    assert report.converged
    return report.cloud


def grid_boundary(cloud: PointCloud) -> PointCloud:
    idx = np.rint(cloud.points / cloud.delta).astype(np.int64)
    keys = set(map(tuple, idx))
    mask = np.array(
        [
            any((i + di, j + dj) not in keys for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))
            for i, j in idx
        ]
    )
    return PointCloud(cloud.points[mask], cloud.delta)


def test_single_map_curves_bound_K(malaria, K):
    # the two heteroclinic curves sit on the rim of K: inside it exactly, and
    # within a few grid cells of the extracted boundary (measured offsets are
    # 1 cell for the S0 curve and a stable 2-3 cells for the S1 curve)
    boundary = grid_boundary(K)
    for per in ("0", "1"):
        curve = individual_attractor(malaria, UPString("", per), delta=DELTA)
        assert curve.converged
        assert directed_distance(curve.cloud, K) == 0.0
        assert directed_distance(curve.cloud, boundary) <= 3 * DELTA


def test_alternating_strategy_lies_between(malaria, K):
    rep = individual_attractor(malaria, UPString("", "10"), delta=DELTA)
    assert rep.converged
    assert directed_distance(rep.cloud, K) <= 2 * DELTA
    a0 = individual_attractor(malaria, UPString("", "0"), delta=DELTA).cloud
    a1 = individual_attractor(malaria, UPString("", "1"), delta=DELTA).cloud
    # a genuinely different set from either single-map curve
    assert hausdorff(rep.cloud, a0) > 2 * DELTA
    assert hausdorff(rep.cloud, a1) > 2 * DELTA
    # strictly between them in x on the line y = its own points
    assert rep.cloud.points[:, 0].min() >= a1.points[:, 0].min() - 2 * DELTA
    assert rep.cloud.points[:, 0].max() <= a0.points[:, 0].max() + 2 * DELTA


def test_right_curve_endpoints_fine_grid(malaria):
    # the S0 attractor connects (0,0) to the interior fixed point
    delta = 1e-3
    rep = individual_attractor(malaria, UPString("", "0"), delta=delta)
    assert rep.converged
    for pt in models.fixed_points(models.PSET0):
        gap = float(np.min(np.linalg.norm(rep.cloud.points - np.array(pt), axis=1)))
        assert gap <= 2 * delta


def test_K_membership_queries(K):
    assert K.contains_points([[0.0, 0.0]])[0]
    assert not K.contains_points([[0.99, 0.99]])[0]
