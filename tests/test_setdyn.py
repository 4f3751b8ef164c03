import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicedyn import models, setdyn
from choicedyn.restricted import vertex_limits
from choicedyn.setdyn import (
    AssumptionViolation,
    ModelSpec,
    PointCloud,
    chaos_game,
    compute_K,
    directed_distance,
    hausdorff,
    hutchinson_step,
    individual_attractor,
)
from choicedyn.sofic import builtin
from choicedyn.symbolic import UPString, d_sigma, enumerate_words, parse_strategy
from grid_oracles import grid_tables, reachable_from_cycles, tree_nearest


@pytest.fixture(scope="module")
def cantor():
    return models.cantor_model()


@pytest.fixture(scope="module")
def cantor_K(cantor):
    return compute_K(cantor, delta=1e-3)


@pytest.fixture(scope="module")
def three_point():
    return models.three_point_model()


def test_cloud_snapping_and_order():
    cloud = PointCloud(np.array([[0.26], [0.24], [0.26], [0.97]]), 0.1)
    assert cloud.points.ravel().tolist() == pytest.approx([0.2, 0.3, 1.0])
    assert cloud.n == 3  # duplicates collapse
    # ties round toward -inf (0.5 grid keeps the arithmetic exact)
    assert PointCloud(np.array([[0.25]]), 0.5).points.ravel().tolist() == [0.0]
    assert PointCloud(np.array([[-0.25]]), 0.5).points.ravel().tolist() == [-0.5]
    assert PointCloud(np.array([[0.75]]), 0.5).points.ravel().tolist() == [0.5]


finite_floats = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
point_lists = st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=12)


@given(pts=point_lists, delta=st.sampled_from([0.0, 0.5, 0.125]))
def test_snapping_idempotent(pts, delta):
    cloud = PointCloud(np.array(pts), delta)
    again = PointCloud(cloud.points, delta)
    assert again == cloud


@given(a=point_lists, b=point_lists, delta=st.sampled_from([0.0, 0.25]))
def test_union_is_commutative_and_absorbing(a, b, delta):
    ca = PointCloud(np.array(a), delta)
    cb = PointCloud(np.array(b), delta)
    u1 = PointCloud.union([ca, cb])
    u2 = PointCloud.union([cb, ca])
    assert u1 == u2
    assert ca.subset_of(u1) and cb.subset_of(u1)
    assert ca.difference(u1).n == 0
    assert ca.intersection(u1) == ca


@pytest.mark.parametrize("delta", [0.0, 0.25])
def test_union_returns_an_input_that_is_the_union(delta):
    whole = PointCloud(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]), delta)
    part = PointCloud(whole.points[::2], delta)
    assert PointCloud.union([whole]) is whole
    assert PointCloud.union([part, whole]) is whole
    assert PointCloud.union([whole, part]) is whole
    assert PointCloud.union([part, part]) is part


def test_cloud_set_semantics():
    a = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.5)
    b = PointCloud(np.array([[1.0, 1.0], [0.0, 0.0]]), 0.5)
    assert a == b
    c = PointCloud(np.array([[0.0, 0.0]]), 0.5)
    assert c.subset_of(a) and not a.subset_of(c)
    assert a.difference(c) == PointCloud(np.array([[1.0, 1.0]]), 0.5)
    assert a.intersection(c) == c


def test_set_algebra_needs_one_grid():
    # 0.5 at delta 0.5 and 0.25 at delta 0.25 are both key 1: comparing keys
    # across grids would call them one point
    half, quarter, plane = PointCloud([[0.5]], 0.5), PointCloud([[0.25]], 0.25), PointCloud([[0.5, 0.5]], 0.5)
    for other in (quarter, plane):
        for op in (half.intersection, half.difference, half.subset_of, lambda c: PointCloud.union([half, c])):
            with pytest.raises(ValueError, match="disagree on delta or dimension"):
                op(other)


def test_contains_points_needs_the_cloud_dimension():
    # the probe's columns were zipped with the cloud's, so extra or missing ones went unseen
    line, plane = PointCloud([[0.5]], 0.1), PointCloud([[0.5, 0.5]], 0.1)
    for cloud, probe in ((line, [[0.5, 7.0]]), (plane, [[0.5]])):
        with pytest.raises(ValueError, match=f"probe points of dimension {len(probe[0])} for a cloud of dimension"):
            cloud.contains_points(probe)
    assert line.contains_points([0.5, 0.7]).tolist() == [True, False]
    assert plane.contains_points([0.5, 0.5]).tolist() == [True]


def _same_cloud(got, want):
    return got == want and got._rows.dtype == want._rows.dtype


@given(a=point_lists, b=point_lists, delta=st.sampled_from([0.0, 0.25]))
def test_set_algebra_from_keys_is_the_snapped_construction(a, b, delta):
    ca, cb = PointCloud(np.array(a), delta), PointCloud(np.array(b), delta)
    in_b = np.array([any((p == q).all() for q in cb.points) for p in ca.points])
    assert _same_cloud(PointCloud.union([ca, cb]), PointCloud(np.concatenate([ca.points, cb.points]), delta))
    assert _same_cloud(ca.difference(cb), PointCloud(ca.points[~in_b], delta))
    assert _same_cloud(ca.intersection(cb), PointCloud(ca.points[in_b], delta))
    assert ca.subset_of(cb) == in_b.all()


def test_hutchinson_cantor_corners(cantor):
    out = hutchinson_step(cantor, PointCloud(np.array([[0.0], [1.0]]), 1e-4))
    assert np.allclose(out.points.ravel(), [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-4)


def test_hutchinson_three_point_full_set(three_point):
    full = PointCloud(three_point.seeder(0.0), 0.0)
    assert hutchinson_step(three_point, full) == full


def test_fixed_cloud_stays_fixed(cantor, cantor_K):
    assert hutchinson_step(cantor, cantor_K.cloud) == cantor_K.cloud


def test_hausdorff_basics():
    one = PointCloud(np.array([[0.0]]), 0.0)
    other = PointCloud(np.array([[1.0]]), 0.0)
    both = PointCloud(np.array([[0.0], [1.0]]), 0.0)
    assert hausdorff(one, other) == 1.0
    assert hausdorff(both, both) == 0.0
    assert hausdorff(both, one) == 1.0
    assert directed_distance(one, both) == 0.0
    with pytest.raises(ValueError):
        hausdorff(one, PointCloud(np.empty((0, 1)), 0.0))
    with pytest.raises(ValueError, match="clouds of dimension 1 and 2"):
        hausdorff(both, PointCloud(np.array([[0.0, 1.0]]), 0.0))
    cube = PointCloud(np.eye(3), 0.0)
    with pytest.raises(ValueError, match="clouds of dimension 3 and 3"):
        directed_distance(cube, PointCloud(np.zeros((1, 3)), 0.0))


def test_distances_of_equal_shifted_and_nested_clouds():
    cloud = PointCloud(np.array([[0.0, 1.0], [0.5, 0.25]]), 0.25)
    assert hausdorff(cloud, cloud) == 0.0
    assert hausdorff(cloud, PointCloud(cloud.points.copy(), 0.25)) == 0.0
    assert hausdorff(cloud, PointCloud(cloud.points[:1], 0.25)) == math.hypot(0.5, 0.75)
    side = 1024  # side * side = 2**20 point pairs
    line = PointCloud(np.arange(2.0 * side)[:, None], 0.0)
    shifted = PointCloud(np.arange(side)[:, None] + 0.5, 0.0)
    assert directed_distance(shifted, PointCloud(line.points[:side], 0.0)) == 0.5
    assert directed_distance(line, PointCloud(line.points[side:], 0.0)) == side  # half of line lies in it
    assert directed_distance(line, shifted) == side - 0.5  # from 2 * side - 1 to side - 0.5


def _assert_key_widths(widths):
    """Each key k of widths[dtype], in a cloud with key 0 at delta 0.1, is held
    as dtype, and its point is the float64 product k * 0.1."""
    for dtype, keys in widths.items():
        for key in keys:
            edge = PointCloud(np.array([[0.0, key * 0.1]]), 0.1)
            assert edge._rows.dtype == dtype and edge._rows.tolist() == [[0, key]], key
            assert edge.points.dtype == np.float64
            assert np.array_equal(edge.points, np.array([[0, key]], dtype=np.float64) * 0.1), key


def test_a_cloud_holds_int32_keys_where_they_fit():
    # keys past int16 and within int32 are int32, half the memory of int64;
    # past int32 they are int64, and delta = 0 keeps the float points
    _assert_key_widths({np.int32: (32768, -32769, 2**31 - 1, -(2**31)), np.int64: (2**31, -(2**31) - 1)})
    far = PointCloud(np.array([[2.0**40]]), 0.5)
    assert far._rows.dtype == np.int64 and far.points.tolist() == [[2.0**40]]
    assert PointCloud(np.array([[0.25, -0.5], [1.0, 2.0]]), 0.0)._rows.dtype == np.float64


def test_a_cloud_holds_int16_or_int32_keys_where_they_fit():
    # the narrowest signed type that holds every key; the points are the
    # float64 products key * delta, whatever the keys' width
    rows = np.array([[0.25, -0.5], [1.0, 32.0]])
    cloud = PointCloud(rows[::-1], 0.25)
    assert cloud._rows.dtype == np.int16 and cloud._rows.tolist() == [[1, -2], [4, 128]]
    assert cloud.points.dtype == np.float64 and np.array_equal(cloud.points, rows)
    _assert_key_widths({np.int16: (32767, -32768), np.int32: (32768, -32769)})
    # set algebra between an int16 and an int32 cloud compares key values
    wide = PointCloud(np.array([[1, 40000], [2, 3], [-5, 0]]) * 0.1, 0.1)
    narrow = PointCloud(np.array([[2, 3], [5, 128]]) * 0.1, 0.1)
    assert (wide._rows.dtype, narrow._rows.dtype) == (np.int32, np.int16)
    assert wide != narrow and wide == PointCloud(wide.points, 0.1)
    assert PointCloud.union([wide, narrow])._rows.tolist() == [[-5, 0], [1, 40000], [2, 3], [5, 128]]
    assert wide.difference(narrow)._rows.tolist() == [[-5, 0], [1, 40000]]
    assert narrow.difference(wide) == PointCloud([[0.5, 12.8]], 0.1)
    assert wide.intersection(narrow) == narrow.intersection(wide) == PointCloud([[0.2, 0.3]], 0.1)
    assert wide.intersection(narrow)._rows.dtype == np.int8


def test_a_cloud_holds_int8_keys_where_they_fit():
    # keys in [-128, 127] take one byte each; the points are still the
    # float64 products key * delta
    _assert_key_widths({np.int8: (127, -128), np.int16: (128, -129)})
    rows = np.array([[0.25, -0.5], [1.0, 2.0]])
    cloud = PointCloud(rows[::-1], 0.25)
    assert cloud._rows.dtype == np.int8 and cloud._rows.tolist() == [[1, -2], [4, 8]]
    assert cloud.points.dtype == np.float64 and np.array_equal(cloud.points, rows)
    # set algebra between an int8 and an int16 cloud compares key values
    wide = PointCloud(np.array([[1, 300], [2, 3], [-5, 0]]) * 0.1, 0.1)
    narrow = PointCloud(np.array([[2, 3], [5, -128]]) * 0.1, 0.1)
    assert (wide._rows.dtype, narrow._rows.dtype) == (np.int16, np.int8)
    assert wide != narrow and narrow == PointCloud(narrow.points, 0.1)
    assert PointCloud.union([wide, narrow])._rows.tolist() == [[-5, 0], [1, 300], [2, 3], [5, -128]]
    assert wide.difference(narrow)._rows.tolist() == [[-5, 0], [1, 300]]
    assert narrow.difference(wide) == PointCloud([[0.5, -12.8]], 0.1)
    assert wide.intersection(narrow) == narrow.intersection(wide) == PointCloud([[0.2, 0.3]], 0.1)
    assert wide.intersection(narrow)._rows.dtype == np.int8


def _set_primitive_inputs():
    """(dtype, array) pairs: empty, one element, all equal, and random values
    of both signs with repeats, in every key dtype and float64."""
    rng = np.random.default_rng(3)
    for dtype in (np.int8, np.int16, np.int64, np.float64):
        yield dtype, np.array([], dtype)
        yield dtype, np.array([-7], dtype)
        yield dtype, np.full(9, -3, dtype)
        yield dtype, rng.integers(-100, 100, size=200).astype(dtype)
    yield np.int64, rng.integers(-(2**62), 2**62, size=100)
    yield np.float64, rng.normal(size=50).round(1)


@pytest.mark.parametrize("dtype,values", list(_set_primitive_inputs()))
def test_sorted_set_primitives_equal_unique_and_isin(dtype, values):
    unique = setdyn._sorted_unique(values)
    assert unique.dtype == dtype and np.array_equal(unique, np.unique(values))
    probes = np.concatenate((values, (values[::2] + 1).astype(dtype), np.array([0, 5], dtype)))
    for b in (values, values[::3], values[:1], values[:0]):
        assert np.array_equal(setdyn._sorted_isin(probes, np.sort(b)), np.isin(probes, b))
        assert np.array_equal(setdyn._sorted_isin(probes, setdyn._sorted_unique(b)), np.isin(probes, b))


def _random_cloud(rng, n, dim, delta, span, apart=0.0):
    """n random points snapped at delta: grid nodes within span nodes of 0,
    or floats of magnitude about span for delta = 0; shifted by apart spans."""
    if delta == 0:
        return PointCloud(rng.normal(scale=span, size=(n, dim)) + apart * span, 0.0)
    return PointCloud((rng.integers(-span, span, size=(n, dim)) + apart * span) * delta, delta)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    sizes=st.sampled_from([(1, 1, 3), (30, 40, 3), (40, 30, 50), (1000, 1000, 5000), (1600, 1500, 5000)]),
    delta=st.sampled_from([0.0, 1.0, 1 / 3, 0.02, 1e-3]),
    apart=st.sampled_from([0.0, 100.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_directed_distance_is_the_search_tree_max_min(dim, sizes, delta, apart, seed):
    # random clouds, dense or sparse, overlapping or far apart, on the grid or
    # at delta = 0: the same floats as the tree's max-min, and off-grid query
    # points get the tree's nearest distances
    rng = np.random.default_rng(seed)
    na, nb, span = sizes
    a, b = _random_cloud(rng, na, dim, delta, span), _random_cloud(rng, nb, dim, delta, span, apart)
    assert directed_distance(a, b) == np.max(tree_nearest(a.points, b.points))
    assert hausdorff(a, b) == max(np.max(tree_nearest(a.points, b.points)), np.max(tree_nearest(b.points, a.points)))
    off = a.points + rng.uniform(-1.0, 1.0, a.points.shape)
    assert np.array_equal(setdyn._nearest(off, b), tree_nearest(off, b.points))


def test_compute_K_matches_ternary_oracle(cantor, cantor_K):
    # independent recursion on the interval tree, never the map iteration
    depth = 7  # ceil(log3(1/delta)) for delta = 1e-3
    ref = PointCloud(models.cantor_reference_points(depth), 1e-3)
    assert cantor_K.converged
    assert hausdorff(cantor_K.cloud, ref) <= 2e-3
    for x in cantor_K.cloud.points.ravel()[::50]:
        assert models.distance_to_cantor(float(x), depth) <= 2e-3


def test_compute_K_three_point_exact(three_point):
    rep = compute_K(three_point, delta=0.0)
    assert rep.converged and rep.residual == 0.0
    assert models.label_cloud(rep.cloud) == frozenset("ABC")


def test_compute_K_single_map_contains_fixed_points():
    rep = compute_K(models.build_model("malaria0"), delta=1e-3)
    assert rep.converged
    for pt in models.fixed_points(models.PSET0):
        assert directed_distance(PointCloud(np.array([pt]), 1e-3), rep.cloud) <= 2e-3


def test_compute_K_rejects_bad_resolution(cantor, three_point):
    with pytest.raises(ValueError):
        compute_K(cantor, delta=0.0)
    with pytest.raises(ValueError):
        compute_K(three_point, delta=0.01)


def _seeded(model, seed):
    """The model with the seed's points as its seeder (the model itself for no seed)."""
    return model if seed is None else dataclasses.replace(model, seeder=lambda _: seed.points)


# Every grid run checks its inputs where its graph is built, so a bad input
# gets the same ValueError from each entry point.  A seed reaches each of
# them as the model's seeder.
_ENTRY_POINTS = {
    "compute_K": lambda m, d, seed: compute_K(_seeded(m, seed), d),
    "individual_attractor": lambda m, d, seed: individual_attractor(_seeded(m, seed), UPString("", "01"), d),
    "vertex_limits": lambda m, d, seed: vertex_limits(_seeded(m, seed), builtin("golden_mean"), d),
}
# The chaos game and the Hutchinson step take no seed, but apply the same
# delta rule before any map.  A cloud's own constructor rejects a negative
# or NaN delta, so the step gets a cloud built around it.
_MAP_RUNS = {
    "chaos_game": lambda m, d, _: chaos_game(
        m, [1 / m.n_maps] * m.n_maps, np.zeros(m.dim), steps=10, burnin=1, rng_seed=0, delta=d
    ),
    "hutchinson_step": lambda m, d, _: hutchinson_step(m, PointCloud._canonical(np.zeros((1, m.dim)), d)),
}


@pytest.mark.parametrize(
    "name, delta, seed, message",
    [
        ("three_point", 0.01, None, "model 'three_point' is discrete; use delta = 0"),
        ("gestalt", 0.5, None, "model 'gestalt' is discrete; use delta = 0"),
        ("malaria", 0.0, None, "grid seeding needs delta > 0"),
        ("cantor", -1e-3, None, "delta must be a finite non-negative number"),
        ("cantor", float("nan"), None, "delta must be a finite non-negative number"),
        ("cantor", 1e-3, PointCloud(np.empty((0, 1)), 1e-3),
         "model 'cantor' needs a nonempty seed of dimension 1, got (0, 1)"),
        ("cantor", 1e-3, PointCloud([[0.25, 0.5]], 1e-3),
         "model 'cantor' needs a nonempty seed of dimension 1, got (1, 2)"),
    ],
    ids=["discrete", "discrete-gestalt", "grid-seeder-at-0", "negative", "nan", "empty-seed", "seed-dimension"],
)
def test_every_grid_run_rejects_bad_input_alike(name, delta, seed, message):
    model = models.build_model(name)
    # a seed, and malaria's seeder at delta = 0, matter to grid runs only
    runs = {**_ENTRY_POINTS, **(_MAP_RUNS if seed is None and delta != 0 else {})}
    for entry, run in runs.items():
        with pytest.raises(ValueError) as exc:
            run(model, delta, seed)
        assert str(exc.value) == message, entry


def test_hutchinson_step_needs_the_model_dimension():
    with pytest.raises(ValueError, match="a cloud of dimension 2 for model 'cantor' of dimension 1"):
        hutchinson_step(models.cantor_model(), PointCloud([[0.3, 0.6]], 0.01))


def test_a_negative_maxiter_is_a_value_error(cantor):
    seed = PointCloud(cantor.seeder(0.01), 0.01)
    runs = {
        "compute_K": lambda m, maxiter: compute_K(m, 0.01, maxiter=maxiter),
        "individual_attractor": lambda m, maxiter: individual_attractor(m, UPString("", "01"), 0.01, maxiter=maxiter),
        "vertex_limits": lambda m, maxiter: vertex_limits(m, builtin("golden_mean"), 0.01, maxiter=maxiter),
    }

    def no_seed(delta):
        raise AssertionError("seeded a rejected run")

    unseeded = dataclasses.replace(cantor, seeder=no_seed)  # rejected before the seed is built
    for maxiter in (-1, -3):
        for run in runs.values():
            with pytest.raises(ValueError, match=f"maxiter must be non-negative, got {maxiter}"):
                run(unseeded, maxiter)
    for entry, run in runs.items():
        out = run(cantor, 0)  # returns the seed, unconverged
        assert out.stop == "maxiter" and out.iterations == 0, entry
        assert (out.union() if entry == "vertex_limits" else out.cloud) == seed, entry


def test_a_continuous_model_runs_at_delta_0_when_its_seeder_does():
    # the line model's seeder is a fixed sample, so delta = 0 reaches the escape check
    with pytest.raises(AssumptionViolation):
        compute_K(models.line_counterexample(), 0.0)


def test_an_escape_from_K_reports_its_step():
    # {1} doubles in magnitude each step and passes the radius 1e6 at step 20
    line, seed = models.line_counterexample(), PointCloud([[1.0]], 0.5)
    with pytest.raises(AssumptionViolation) as from_K:
        compute_K(_seeded(line, seed), 0.5)
    with pytest.raises(AssumptionViolation) as from_A_w:
        individual_attractor(_seeded(line, seed), UPString("", "01"), 0.5)
    assert from_K.value.step == from_A_w.value.step == 20


def test_an_escape_reports_the_first_row_that_leaves_the_box():
    # row 2 leaves through its second coordinate, row 3 through its first
    model = models.malaria_model()
    pts = np.array([[0.5, 0.5], [1.1, -0.1], [0.4, 1.5], [2.0, 0.1]])
    with pytest.raises(AssumptionViolation) as escape:
        model.escape_check(pts, 0.01, step=7)
    assert (escape.value.step, escape.value.value, escape.value.excess) == (7, (0.4, 1.5), 1.5 - (1.0 + 10 * 0.01))
    model.escape_check(pts[:2], 0.01)  # (1.1, -0.1) lies on the edge of the 10 * delta slack


def test_compute_K_rejects_a_seed_flagged_absorbing_that_grows():
    # the seed {0, 1} maps onto {0, 0.5, 1}, which has more nodes; two constant
    # maps send it onto {0.5}, which has fewer nodes but one the seed lacks
    halves = (lambda pts: pts / 2.0, lambda pts: 1.0 - pts / 2.0), (lambda x: x / 2.0, lambda x: 1.0 - x / 2.0)
    constant = (lambda pts: np.full_like(pts, 0.5),) * 2, (lambda x: 0.5,) * 2
    for name, (maps, scalar_maps) in (("halves", halves), ("constant", constant)):
        model = ModelSpec(
            name=name,
            dim=1,
            maps=maps,
            scalar_maps=scalar_maps,
            lower=(0.0,),
            upper=(1.0,),
            seeder=lambda delta: np.array([[0.0], [1.0]]),
            seed_absorbing=True,
        )
        with pytest.raises(RuntimeError, match="not absorbing"):
            compute_K(model, delta=0.25)


def test_a_symbol_the_model_has_no_map_for_is_a_value_error():
    single = models.build_model("malaria0")
    with pytest.raises(ValueError, match="symbol 1 outside the model's 1 maps"):
        individual_attractor(single, parse_strategy("(10)"), 0.02)
    with pytest.raises(ValueError, match="symbol 1 outside the model's 1 maps"):
        vertex_limits(single, builtin("golden_mean"), 0.05)


def test_individual_attractor_single_symbol_reduction(cantor):
    rep = individual_attractor(cantor, UPString("", "0"), delta=1e-3)
    sub = compute_K(models.submodel(cantor, 0), delta=1e-3)
    assert rep.converged
    assert hausdorff(rep.cloud, sub.cloud) <= 2 * 1e-3


def test_individual_attractor_periodic_cycle_union(cantor):
    # (01)* alternates x/3 and x/3 + 2/3; the two-cycle 0.25 <-> 0.75 solves
    # S1(S0(x)) = x/9 + 2/3 = x and S0(S1(x)) = x/9 + 2/9 = x by hand
    rep = individual_attractor(cantor, UPString("", "01"), delta=1e-4)
    assert rep.converged
    assert np.allclose(sorted(rep.cloud.points.ravel()), [0.25, 0.75], atol=2e-4)


def test_line_model_diagnostics():
    line = models.line_counterexample()
    seed = PointCloud(np.array([[1.0]]), 0.0)
    with pytest.raises(AssumptionViolation) as err:
        individual_attractor(_seeded(line, seed), UPString("", "01"), delta=0.0, maxiter=40)
    assert err.value.step <= 25
    for j in (0, 1):
        rep = individual_attractor(line, UPString("", str(j)), delta=0.0)
        assert rep.converged
        assert np.max(np.abs(rep.cloud.points)) <= 1e-9


def test_individual_attractor_waits_out_the_preperiod(three_point):
    # the orbit is {A,B,C}, then {B,C} for all four 0s, then {A,B} under 1 for
    # good: the repeats of {B,C} inside the preperiod are no cycle of w
    rep = individual_attractor(three_point, parse_strategy("0000(1)"), 0.0)
    assert rep.converged
    assert models.label_cloud(rep.cloud) == frozenset("AB")


def test_individual_attractor_stops_at_recurrence_on_the_line():
    # 10 * diameter / delta would be 4e7 steps on the unbounded line model
    rep = individual_attractor(models.line_counterexample(), UPString("", "1"), delta=0.5)
    assert rep.converged
    assert rep.iterations <= 5
    assert rep.cloud.points.ravel().tolist() == [0.0]


def _set_orbit_limit(tables, start, w):
    """A_w of a finite model by brute force: walk the orbit of label sets until
    a (set, position in the period) state recurs past the preperiod, and
    unite the sets of that cycle."""
    first, history, cur, k = {}, [], frozenset(start), 0
    while True:
        if k >= len(w.preperiod):
            state = (cur, (k - len(w.preperiod)) % len(w.period))
            if state in first:
                return frozenset().union(*history[first[state]:])
            first[state] = k
        history.append(cur)
        cur = frozenset(tables[w.letter_at(k)][x] for x in cur)
        k += 1


def test_individual_attractor_matches_set_orbit_on_three_point(three_point):
    # set cycles of length 2p, 3p, ... included: 01(10) from {A} runs A, B, B, C, ...
    tables = (models._S0_TABLE, models._S1_TABLE)
    strategies = {
        UPString(pre.letters, per.letters)
        for pre_len in range(4)
        for per_len in range(1, 4)
        for pre in enumerate_words(2, pre_len)
        for per in enumerate_words(2, per_len)
    }
    runs = 0
    for w in strategies:
        for start in ("A", "B", "C", "AB", "ABC"):
            rep = individual_attractor(_seeded(three_point, models.points_cloud(list(start))), w, 0.0)
            assert rep.converged and rep.residual == 0.0, (w, start)
            assert models.label_cloud(rep.cloud) == _set_orbit_limit(tables, start, w), (w, start)
            runs += 1
    assert runs == 400


@pytest.mark.parametrize("text", ["1(0)", "01(0)", "11(0)"])
def test_individual_attractor_matches_set_orbit_on_gestalt(text):
    model = models.gestalt_model()
    codes = model.seeder(0.0).ravel().tolist()
    tables = [{c: fn(c) for c in codes} for fn in model.scalar_maps]
    w = parse_strategy(text)
    rep = individual_attractor(model, w, 0.0)
    assert rep.converged and rep.residual == 0.0
    assert set(rep.cloud.points.ravel().tolist()) == _set_orbit_limit(tables, codes, w)


def test_omega_limit_examples(three_point):
    w = UPString("", "0")
    from_A = individual_attractor(_seeded(three_point, models.points_cloud(["A"])), w, 0.0).cloud
    assert models.label_cloud(from_A) == frozenset("BC")
    bigger = individual_attractor(_seeded(three_point, models.points_cloud(["A", "B"])), w, 0.0).cloud
    assert from_A.subset_of(bigger)


def test_omega_limit_inside_individual_attractor():
    mal = models.malaria_model()
    w = UPString("", "0")
    a_w = individual_attractor(mal, w, delta=0.01)
    om = individual_attractor(_seeded(mal, PointCloud(np.array([[0.5, 0.5]]), 0.01)), w, 0.01).cloud
    assert directed_distance(om, a_w.cloud) <= 2 * 0.01


def test_nesting_inclusions_on_cantor(cantor, cantor_K):
    delta = 1e-3
    for per in ("0", "1", "01", "011"):
        rep = individual_attractor(cantor, UPString("", per), delta=delta)
        f_a = hutchinson_step(cantor, rep.cloud)
        assert directed_distance(rep.cloud, f_a) <= 2 * delta
        assert directed_distance(f_a, cantor_K.cloud) <= 2 * delta


@pytest.mark.parametrize(
    "name, params, delta",
    [("malaria", {}, 0.02), ("malaria", {"dt": 0.005}, 0.02), ("cantor", {}, 1e-3), ("gestalt", {}, 0.0),
     ("three_point", {}, 0.0)],
    ids=["malaria-0.02", "malaria_dt0.005-0.02", "cantor-0.001", "gestalt", "three_point"],
)
def test_every_individual_attractor_lies_in_K_on_the_grid(name, params, delta):
    # each T_k of an orbit from the seed lies in F^k(seed), so A_w is a subset of K, exactly
    model = models.build_model(name, params)
    K = compute_K(model, delta).cloud
    strategies = {
        UPString(pre.letters, per.letters)
        for pre_len in range(4)
        for per_len in range(1, 5 - pre_len)
        for pre in enumerate_words(2, pre_len)
        for per in enumerate_words(2, per_len)
    }
    assert len(strategies) == 48
    for w in strategies:
        assert individual_attractor(model, w, delta).cloud.subset_of(K), w


def test_cantor_digit_coding_reaches_every_K_point(cantor, cantor_K):
    # base-2 coding of the ternary digits: periodized, the composite word
    # S_{w[depth]} contracts to a point within 3**-depth of the target
    delta = 1e-3
    depth = 7
    rng = np.random.default_rng(3)
    pts = cantor_K.cloud.points.ravel()
    for x in rng.choice(pts, size=5, replace=False):
        digits = models.cantor_digits(float(x), depth)
        word = tuple(d // 2 for d in reversed(digits))
        rep = individual_attractor(cantor, UPString("", word), delta=delta)
        target = PointCloud(np.array([[float(x)]]), delta)
        assert directed_distance(target, rep.cloud) <= 2 * delta
        assert directed_distance(rep.cloud, cantor_K.cloud) <= 2 * delta


def test_chaos_game_contract(cantor):
    cloud, mean = chaos_game(
        cantor, (0.5, 0.5), 0.2, steps=20_000, burnin=500, rng_seed=11, delta=1e-3
    )
    cloud2, mean2 = chaos_game(
        cantor, (0.5, 0.5), 0.2, steps=20_000, burnin=500, rng_seed=11, delta=1e-3
    )
    assert cloud == cloud2 and mean == mean2
    with pytest.raises(ValueError):
        chaos_game(cantor, (0.7, 0.7), 0.2, steps=100, burnin=1, rng_seed=0, delta=1e-3)
    with pytest.raises(ValueError):
        chaos_game(cantor, (0.5, 0.5), 0.2, steps=10, burnin=20, rng_seed=0, delta=1e-3)


def test_chaos_game_rejects_a_negative_burnin(cantor):
    # buf[-3:] would keep only the last three points
    with pytest.raises(ValueError, match="burnin must be non-negative"):
        chaos_game(cantor, (0.5, 0.5), 0.5, steps=1000, burnin=-3, rng_seed=1, delta=1e-3)


def test_chaos_game_rejects_a_start_of_another_dimension(cantor):
    # a 1-D model read only the first of three coordinates; a 2-D one failed inside its map
    for model, x0 in ((cantor, [0.5, 0.5, 0.5]), (models.build_model("malaria"), 0.5)):
        with pytest.raises(ValueError, match=f"x0 needs {model.dim} coordinates, got {len(np.atleast_1d(x0))}"):
            chaos_game(model, (0.5, 0.5), x0, steps=1000, burnin=10, rng_seed=1, delta=1e-3)


def test_chaos_game_scatter_inside_K(cantor, cantor_K):
    cloud, _ = chaos_game(
        cantor, (0.5, 0.5), 0.2, steps=20_000, burnin=500, rng_seed=11, delta=1e-3
    )
    assert directed_distance(cloud, cantor_K.cloud) <= 3e-3


def test_csv_round_trip(cantor_K):
    text = cantor_K.cloud.to_csv()
    again = PointCloud.from_csv(text, cantor_K.cloud.delta)
    assert again == cantor_K.cloud
    assert again.to_csv() == text


def test_from_csv_rejects_a_row_of_another_width():
    # four values under a two-column header were reshaped into two points
    for text, row, n in (("x0,x1\n1,2,3,4\n", "1,2,3,4", 4), ("x0,x1\n1,2\n3\n", "3", 1)):
        with pytest.raises(ValueError, match=f"row '{row}' holds {n} values, the header 2"):
            PointCloud.from_csv(text)


def test_delta_invariance_constant(cantor):
    for delta in (1e-2, 1e-3):
        rep = compute_K(cantor, delta=delta)
        assert rep.converged
        step = hutchinson_step(cantor, rep.cloud)
        assert hausdorff(step, rep.cloud) <= 4 * delta


def test_dsigma_metric_hausdorff():
    model = models.gestalt_model()
    L = model.dsigma_bits
    a = PointCloud(np.array([[float(models.word_to_code("0" * L, L))]]), 0.0)
    b_code = models.word_to_code("001" + "0" * (L - 3), L)
    b = PointCloud(np.array([[float(b_code)]]), 0.0)
    # first disagreement at position 2 (0-indexed), so the distance is 2**-3
    assert hausdorff(a, b, model) == 2.0 ** -3
    assert hausdorff(a, a, model) == 0.0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dsigma_distances_match_the_symbolic_metric(data):
    # the code-space distances of gestalt clouds against symbolic.d_sigma on
    # the words the codes stand for, as max-min over the points
    model = models.gestalt_model()
    L = model.dsigma_bits
    sets = st.lists(st.integers(0, 2**L - 1), min_size=1, max_size=5, unique=True)
    a, b = data.draw(sets), data.draw(sets)

    def directed(x, y):
        return max(min(d_sigma(models.code_to_word(u, L), models.code_to_word(v, L)) for v in y) for u in x)

    ca, cb = (PointCloud(np.array(c, dtype=float)[:, None], 0.0) for c in (a, b))
    assert directed_distance(ca, cb, model) == directed(a, b)
    assert hausdorff(ca, cb, model) == max(directed(a, b), directed(b, a))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dsigma_distances_equal_the_every_pair_reference(data):
    # the sorted-neighbour lookup against the max-min over every pair of codes
    L = data.draw(st.integers(6, 12))
    model = models.gestalt_model(L)
    sets = st.lists(st.integers(0, 2**L - 1), min_size=1, max_size=80)
    a, b = data.draw(sets), data.draw(sets)

    def directed(x, y):
        xor = np.array(x, dtype=np.int64)[:, None] ^ np.array(y, dtype=np.int64)[None, :]
        _, exp = np.frexp(xor.astype(float))
        return float(np.where(xor == 0, 0.0, np.ldexp(1.0, exp - 1 - L)).min(axis=1).max())

    ca, cb = (PointCloud(np.array(c, dtype=float)[:, None], 0.0) for c in (a, b))
    assert directed_distance(ca, cb, model) == directed(a, b)
    assert hausdorff(ca, cb, model) == max(directed(a, b), directed(b, a))


def test_dsigma_residual_of_a_deep_gestalt_K():
    # 2**16 codes: an every-pair residual would compare 2**32 pairs
    rep = compute_K(models.gestalt_model(16), 0.0, maxiter=2)
    assert (rep.stop, rep.residual) == ("maxiter", 0.03125)


def test_compute_K_is_deterministic():
    mal = models.malaria_model()
    first = compute_K(mal, delta=0.02)
    second = compute_K(mal, delta=0.02)
    assert second.cloud == first.cloud
    assert second.iterations == first.iterations


def test_maxiter_exhaustion_reports_not_converged(cantor):
    rep = compute_K(cantor, delta=1e-3, maxiter=2)
    assert not rep.converged and rep.stop == "maxiter"
    assert rep.iterations == 2
    assert rep.residual > 1e-3


@pytest.mark.parametrize("maxiter", [3, 10])
def test_maxiter_exit_reports_last_step_distance(maxiter):
    mal = models.malaria_model()
    rep = compute_K(mal, delta=2e-3, maxiter=maxiter)
    clouds = [PointCloud(mal.seeder(2e-3), 2e-3)]
    for _ in range(maxiter):
        clouds.append(hutchinson_step(mal, clouds[-1]))
    assert not rep.converged and rep.cloud == clouds[-1]
    assert rep.residual == hausdorff(clouds[-2], clouds[-1], mal)


def test_snapping_rejects_int64_overflow():
    with pytest.raises(ValueError, match=r"delta=1e-14.*1e\+06"):
        PointCloud([[1e6]], 1e-14)


@pytest.mark.parametrize(
    "name, params, delta",
    [("malaria", {}, 0.02), ("cantor", {}, 1e-3), ("malaria", {}, 0.01), ("malaria", {"dt": 0.005}, 0.02)],
    ids=["malaria-0.02", "cantor-0.001", "malaria-0.01", "malaria_dt0.005-0.02"],
)
def test_compute_K_equals_cycle_reachable_grid_nodes(name, params, delta):
    # the last two pass steps that move K by at most delta well before its limit
    model = models.build_model(name, params)
    coords, tables = grid_tables(model, delta)
    n = len(coords)
    oracle = coords[reachable_from_cycles(n, np.tile(np.arange(n), len(tables)), np.concatenate(tables))]
    rep = compute_K(model, delta)
    assert rep.stop == "cycle" and rep.residual == 0.0
    assert np.array_equal(rep.cloud.points, oracle)


@pytest.mark.parametrize("text", ["(10)", "1(001)", "(0111)", "000(100)"])
def test_individual_attractor_equals_composed_table_image(text):
    mal, delta = models.malaria_model(), 0.02
    w = parse_strategy(text)
    coords, tables = grid_tables(mal, delta)
    cur = np.arange(len(coords))
    for s in w.preperiod:
        cur = np.unique(tables[s][cur])
    composed = np.arange(len(coords))
    for s in w.period:
        composed = tables[s][composed]
    for _ in range(int(np.ceil(np.log2(len(coords))))):  # past every transient
        composed = composed[composed]
    cur = np.unique(composed[cur])
    union = cur
    for s in w.period[:-1]:
        cur = np.unique(tables[s][cur])
        union = np.union1d(union, cur)
    rep = individual_attractor(mal, w, delta)
    assert rep.converged
    assert np.array_equal(rep.cloud.points, coords[union])
