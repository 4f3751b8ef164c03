import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicedyn import models
from choicedyn.setdyn import PointCloud, compute_K, individual_attractor
from choicedyn.symbolic import UPString, Word


def test_fixed_points_exact_values():
    assert models.fixed_points(models.PSET0) == ((0.0, 0.0), (11 / 15, 11 / 16))
    assert models.fixed_points(models.PSET1) == ((0.0, 0.0), (7 / 25, 7 / 12))


def test_fixed_points_residuals():
    for p in (models.PSET0, models.PSET1):
        _, scalar = models._malaria_maps(p)
        for pt in models.fixed_points(p):
            img = scalar(pt)
            assert abs(img[0] - pt[0]) <= 1e-12
            assert abs(img[1] - pt[1]) <= 1e-12


def test_fixed_points_threshold_case():
    p = models.MalariaParams(a=1, b=1, r=1, m=1, dt=0.25)
    assert models.fixed_points(p) == ((0.0, 0.0),)


def test_step_bound_gate():
    assert float(models.step_bound(4, 6, 1, 2)) == 0.125
    assert models.admits_step(4, 6, 1, 2, 0.05)
    assert not models.admits_step(4, 6, 1, 2, 0.2)
    assert not models.admits_step(4, 6, 1, 2, 0.125)
    with pytest.raises(ValueError):
        models.MalariaParams(a=4, b=6, r=1, m=2, dt=0.2)


def test_malaria_square_invariant_on_grid():
    grid = np.stack(
        np.meshgrid(np.linspace(0, 1, 100), np.linspace(0, 1, 100), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    for p in (models.PSET0, models.PSET1):
        vec, _ = models._malaria_maps(p)
        img = vec(grid)
        assert img.min() >= -1e-12
        assert img.max() <= 1.0 + 1e-12


def test_malaria_origin_fixed():
    vec, _ = models._malaria_maps(models.PSET0)
    assert vec(np.array([[0.0, 0.0]])).tolist() == [[0.0, 0.0]]


def test_line_orbit_values():
    line = models.line_counterexample()
    x = 1.0
    seen = [x]
    for k in range(6):
        x = line.scalar_maps[k % 2](x)
        seen.append(x)
    assert seen == [1.0, -2.0, 4.0, -8.0, 16.0, -32.0, 64.0]


def test_cantor_oracle_examples():
    assert models.distance_to_cantor(0.0, 9) == 0.0
    assert models.distance_to_cantor(1.0, 9) == 0.0
    assert models.distance_to_cantor(0.5, 9) == pytest.approx(1 / 6)
    ref = models.cantor_reference_points(9).ravel()
    assert ref.min() == 0.0
    assert ref.max() == pytest.approx(1.0, abs=1e-12)  # diameter 1


def test_gestalt_codes_round_trip():
    L = 12
    w = Word("000100100100")
    code = models.word_to_code(w, L)
    assert models.code_to_word(code, L) == w


def test_gestalt_depth_is_at_least_six():
    assert models.gestalt_model(6).dsigma_bits == 6
    assert models.build_model("gestalt", {"depth": 8}).upper == (255.0,)
    assert models.gestalt_model(np.int64(20)).upper == (2.0**20 - 1,)
    for depth in (5, 21, 40, 8.0, 8.5, True, "8", None):
        with pytest.raises(ValueError, match="depth must be at least 6 and at most 20, an int"):
            models.build_model("gestalt", {"depth": depth})
    with pytest.raises(ValueError, match="depth must be at least 6"):
        models.gestalt_model(5)


def test_gestalt_maps_read_three_letters():
    model = models.gestalt_model()
    L = model.dsigma_bits
    rng = np.random.default_rng(5)
    for _ in range(50):
        head = tuple(rng.integers(0, 2, size=3))
        tail1 = tuple(rng.integers(0, 2, size=L - 3))
        tail2 = tuple(rng.integers(0, 2, size=L - 3))
        for fn in model.scalar_maps:
            a = fn(models.word_to_code(head + tail1, L))
            b = fn(models.word_to_code(head + tail2, L))
            wa = models.code_to_word(int(a), L)
            wb = models.code_to_word(int(b), L)
            # the prepended letter is decided by the first three symbols alone
            assert wa.letters[0] == wb.letters[0]
            assert wa.prefix(4) == wb.prefix(4)
            assert wa.letters == (wa.letters[0],) + (head + tail1)[: L - 1]


def test_gestalt_map_forms_round_a_code_alike():
    # a code between two integers is rounded half to even by both forms
    model = models.gestalt_model()
    codes = [0.0, 1.0, 2046.5, 2047.0, 2047.5, 2048.5, 4095.0]
    for vec, scalar in zip(model.maps, model.scalar_maps):
        assert vec(np.array(codes)[:, None])[:, 0].tolist() == [scalar(x) for x in codes]
        assert scalar(2047.5) == scalar(2048.0) and scalar(2046.5) == scalar(2046.0)


def test_gestalt_zero_block_then_one_builds_prefix():
    # applying 3k zeros then a single 1 to a state starting 001 yields 0001001...
    model = models.gestalt_model()
    L = model.dsigma_bits
    state = models.word_to_code(Word("001001001001"), L)
    x = float(state)
    for _ in range(9):  # 3k zeros with k = 3
        x = model.scalar_maps[0](x)
    x = model.scalar_maps[1](x)
    got = models.code_to_word(int(x), L)
    assert str(got).startswith("0001001")


def test_gestalt_single_map_attractors():
    # S0 alone keeps 3-periodic states, S1 alone 2-periodic states
    model = models.gestalt_model()
    L = model.dsigma_bits
    rep0 = individual_attractor(model, UPString("", "0"), delta=0.0)
    assert rep0.converged
    for code in rep0.cloud.points.ravel():
        w = models.code_to_word(int(code), L).letters
        assert all(w[i] == w[i + 3] for i in range(L - 3))
    rep1 = individual_attractor(model, UPString("", "1"), delta=0.0)
    for code in rep1.cloud.points.ravel():
        w = models.code_to_word(int(code), L).letters
        assert all(w[i] == w[i + 2] for i in range(L - 2))


def test_three_point_stated_values():
    model = models.three_point_model()
    maps = {0: models._S0_TABLE, 1: models._S1_TABLE}
    assert maps[0]["A"] == "B" and maps[1]["A"] == "A" and maps[0]["C"] == "B"
    for j, table in maps.items():
        for name, target in table.items():
            out = model.scalar_maps[j](models.THREE_POINTS[name])
            assert out == models.THREE_POINTS[target]


def test_three_point_maps_take_only_exact_states():
    # the vectorised maps matched a state within 1e-9, the scalar ones exactly
    model = models.three_point_model()
    off = (0.5 + 1e-12, 1.0)
    for j in range(model.n_maps):
        for fn, arg in ((model.maps[j], np.array([(0.0, 0.0), off])), (model.scalar_maps[j], off)):
            with pytest.raises(ValueError, match="point is not one of the three model states"):
                fn(arg)


def test_registry_and_config():
    model = models.build_model("malaria", {"dt": 0.05})
    assert model.n_maps == 2
    assert models.build_model("malaria0").n_maps == 1
    with pytest.raises(ValueError):
        models.build_model("unknown")


def test_malaria0_builds_only_the_set_it_uses():
    # dt = 0.1 is below PSET0's step bound 0.125 and above PSET1's 1/12
    single = models.build_model("malaria0", {"dt": 0.1})
    pset0 = models.MalariaParams(4, 6, 1, 2, dt=0.1)
    pts = np.array([[0.5, 0.5], [0.2, 0.9]])
    assert single.n_maps == 1 and np.array_equal(single.maps[0](pts), models.malaria_model(pset0).maps[0](pts))
    with pytest.raises(ValueError, match="dt=0.1 violates the step bound 0.0833"):
        models.build_model("malaria", {"dt": 0.1})


def test_submodel_matches_pset0_dynamics():
    mal = models.malaria_model()
    sub = models.submodel(mal, 0)
    pts = np.array([[0.5, 0.5], [0.2, 0.9]])
    assert np.array_equal(sub.maps[0](pts), mal.maps[0](pts))
    with pytest.raises(ValueError):
        models.submodel(mal, 5)


@pytest.mark.parametrize(
    "name,params",
    [
        ("malaria", {"depth": 3}),
        ("malaria0", {"pset1": {"a": 2, "b": 10, "r": 3, "m": 2}}),
        ("cantor", {"dt": 0.05}),
        ("line", {"depth": 12}),
        ("line", {"radius": 1.0}),
        ("gestalt", {"radius": 1.0}),
        ("three_point", {"dt": 0.05}),
    ],
)
def test_build_model_rejects_params_it_does_not_read(name, params):
    with pytest.raises(ValueError, match="reads only params"):
        models.build_model(name, params)


def test_malaria_psets_defaults_and_dt():
    assert models.malaria_psets({}) == (models.PSET0, models.PSET1)
    p0, p1 = models.malaria_psets({"dt": 0.01, "pset1": {"a": 1, "b": 2, "r": 3, "m": 4}})
    assert p0 == models.MalariaParams(4, 6, 1, 2, dt=0.01)
    assert p1 == models.MalariaParams(1, 2, 3, 4, dt=0.01)
    for bad in ({"pset0": {"a": 4, "b": 6, "r": 1}}, {"pset0": {"a": 4, "b": 6, "r": 1, "m": 2, "dt": 0.1}}):
        with pytest.raises(ValueError):
            models.malaria_psets(bad)


def _in_region_points(model, name):
    """Hypothesis points inside the model's region, as the chaos game feeds them."""
    if name == "three_point":
        return st.sampled_from(sorted(models.THREE_POINTS.values()))
    if name == "gestalt":
        return st.integers(0, 2 ** model.dsigma_bits - 1).map(float)
    coords = [st.floats(lo, hi, allow_nan=False) for lo, hi in zip(model.lower, model.upper)]
    return st.tuples(*coords) if model.dim > 1 else coords[0]


@pytest.mark.parametrize("name", models.MODEL_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vector_and_scalar_maps_agree_exactly(name, data):
    model = models.build_model(name)
    pts = data.draw(st.lists(_in_region_points(model, name), min_size=1, max_size=50))
    arr = np.array(pts, dtype=float).reshape(len(pts), model.dim)
    for j in range(model.n_maps):
        scalar = np.array([model.scalar_maps[j](p) for p in pts], dtype=float).reshape(arr.shape)
        assert np.array_equal(model.maps[j](arr), scalar), (name, j)
