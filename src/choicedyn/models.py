"""Concrete systems packaged as ModelSpecs, plus their independent oracles.

* ``malaria_model``: the discrete Ross-Macdonald step maps on the unit
  square for two parameter sets (infected-human fraction x, infected-
  mosquito fraction y; a, b biting/transmission rates, r recovery rate,
  1/m mosquito life span, dt the time step).
* ``line_counterexample``: the piecewise maps on the real line whose
  alternating strategy is unbounded (the dissipativity failure diagnostic).
* ``cantor_model``: the middle-thirds IFS with a ternary-digit distance
  oracle, used as the strict-contraction ground truth.
* ``gestalt_model``: binary shift states truncated to depth L; the two maps
  prepend the third resp. second letter, so dynamics on prefixes is exact.
* ``three_point_model``: the three-point animation of the golden+even
  presentation (S0: A>B, B>C, C>B; S1: A>A, B>B, C>A).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .setdyn import ModelSpec, PointCloud
from .symbolic import UPString, Word


# ---------------------------------------------------------------------------
# malaria (discrete Ross-Macdonald)


def step_bound(a, b, r, m) -> Fraction:
    """Exact admissibility bound on the time step: min(1/(a+r), 1/(b+m))."""
    return min(Fraction(1) / (Fraction(a) + Fraction(r)), Fraction(1) / (Fraction(b) + Fraction(m)))


def admits_step(a, b, r, m, dt) -> bool:
    """Exact gate dt < min(1/(a+r), 1/(b+m)) keeping the unit square invariant."""
    return Fraction(dt) < step_bound(a, b, r, m)


@dataclass(frozen=True)
class MalariaParams:
    """Positive rates a, b, r, m (1/time) and an admissible time step dt."""

    a: float
    b: float
    r: float
    m: float
    dt: float = 0.05

    def __post_init__(self):
        if min(self.a, self.b, self.r, self.m) <= 0:
            raise ValueError("rates a, b, r, m must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not admits_step(self.a, self.b, self.r, self.m, self.dt):
            raise ValueError(
                f"dt={self.dt} violates the step bound {float(step_bound(self.a, self.b, self.r, self.m))}"
            )


PSET0 = MalariaParams(a=4, b=6, r=1, m=2)
PSET1 = MalariaParams(a=2, b=10, r=3, m=2)
_PSETS = {"pset0": PSET0, "pset1": PSET1}


def fixed_points(p: MalariaParams):
    """Fixed points of the step map: (0,0), plus the interior one when ab > rm.

    The interior point is x* = (ab-rm)/(b(a+r)), y* = (ab-rm)/(a(b+m)).
    """
    pts = [(0.0, 0.0)]
    if p.a * p.b > p.r * p.m:
        num = p.a * p.b - p.r * p.m
        pts.append((num / (p.b * (p.a + p.r)), num / (p.a * (p.b + p.m))))
    return tuple(pts)


def _malaria_maps(p: MalariaParams):
    a, b, r, m, dt = p.a, p.b, p.r, p.m, p.dt

    def vec(pts):
        x = pts[:, 0]
        y = pts[:, 1]
        return np.column_stack(
            (x + dt * (a * y * (1.0 - x) - r * x), y + dt * (b * x * (1.0 - y) - m * y))
        )

    def scalar(pt):
        x, y = pt
        return (x + dt * (a * y * (1.0 - x) - r * x), y + dt * (b * x * (1.0 - y) - m * y))

    return vec, scalar


def _grid_seeder(lower, upper):
    lower = tuple(float(v) for v in lower)
    upper = tuple(float(v) for v in upper)

    def seed(delta):
        if delta <= 0:
            raise ValueError("grid seeding needs delta > 0")
        axes = [
            np.arange(int(np.ceil(lo / delta - 1e-9)), int(np.floor(hi / delta + 1e-9)) + 1) * delta
            for lo, hi in zip(lower, upper)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    return seed


def malaria_model(p0: MalariaParams = PSET0, p1: MalariaParams = PSET1) -> ModelSpec:
    """Dynamics with choice on the unit square between two parameter sets."""
    v0, s0 = _malaria_maps(p0)
    v1, s1 = _malaria_maps(p1)
    return ModelSpec(
        name="malaria",
        dim=2,
        maps=(v0, v1),
        scalar_maps=(s0, s1),
        lower=(0.0, 0.0),
        upper=(1.0, 1.0),
        seeder=_grid_seeder((0.0, 0.0), (1.0, 1.0)),
        seed_absorbing=True,
    )


# ---------------------------------------------------------------------------
# real-line counterexample

LINE_RADIUS = 1.0e6


def line_counterexample(radius: float = LINE_RADIUS) -> ModelSpec:
    """Two piecewise-linear maps on R whose alternation is unbounded.

    S0(x) = 0 for x <= 0 and -2x for x > 0; S1 mirrors it.  Each map alone
    has the singleton attractor {0}; the strategy (01)^inf doubles |x| each
    step, which the escape monitor reports as an assumption violation once
    |x| passes the monitoring radius.  The seed samples the inner half of
    the monitored interval so that one map application stays inside it.
    """

    def v0(pts):
        x = pts[:, 0]
        return np.where(x <= 0.0, 0.0, -2.0 * x)[:, None]

    def v1(pts):
        x = pts[:, 0]
        return np.where(x <= 0.0, -2.0 * x, 0.0)[:, None]

    def s0(x):
        return 0.0 if x <= 0.0 else -2.0 * x

    def s1(x):
        return -2.0 * x if x <= 0.0 else 0.0

    def seed(delta):
        return np.linspace(-radius / 2.0, radius / 2.0, 2001)[:, None]

    return ModelSpec(
        name="line",
        dim=1,
        maps=(v0, v1),
        scalar_maps=(s0, s1),
        lower=(-radius,),
        upper=(radius,),
        seeder=seed,
    )


# ---------------------------------------------------------------------------
# Cantor IFS and its digit oracle


def cantor_model() -> ModelSpec:
    """S0(x) = x/3, S1(x) = x/3 + 2/3 on [0, 1] (strict contractions)."""

    def v0(pts):
        return pts / 3.0

    def v1(pts):
        return pts / 3.0 + 2.0 / 3.0

    return ModelSpec(
        name="cantor",
        dim=1,
        maps=(v0, v1),
        scalar_maps=(lambda x: x / 3.0, lambda x: x / 3.0 + 2.0 / 3.0),
        lower=(0.0,),
        upper=(1.0,),
        seeder=_grid_seeder((0.0,), (1.0,)),
        seed_absorbing=True,
    )


def distance_to_cantor(x: float, depth: int) -> float:
    """Distance from x to the depth-level middle-thirds approximation.

    Independent of the set-iteration engine: recurses on the two thirds,
    so the depth-d approximation is a union of 2**d closed intervals.
    """
    if depth <= 0:
        return max(0.0, -x, x - 1.0)
    return min(distance_to_cantor(3.0 * x, depth - 1), distance_to_cantor(3.0 * x - 2.0, depth - 1)) / 3.0


def cantor_reference_points(depth: int) -> np.ndarray:
    """Endpoints of the 2**depth depth-level intervals (the digit oracle).

    Left endpoints are sums of digits in {0, 2} over 3**-i; right endpoints
    add the interval length 3**-depth.
    """
    lefts = np.zeros(1)
    for i in range(1, depth + 1):
        lefts = np.concatenate((lefts, lefts + 2.0 * 3.0 ** (-i)))
    rights = lefts + 3.0 ** (-depth)
    return np.concatenate((lefts, rights))[:, None]


def cantor_digits(x: float, depth: int) -> tuple:
    """Greedy ternary digits of x to the given depth (clamped into [0, 1])."""
    digits = []
    x = min(max(x, 0.0), 1.0)
    for _ in range(depth):
        x *= 3.0
        d = min(int(x), 2)
        digits.append(d)
        x -= d
    return tuple(digits)


# ---------------------------------------------------------------------------
# truncated shift states (the Gestalt system)


def word_to_code(letters, depth: int) -> int:
    letters = tuple(int(v) for v in letters)
    if len(letters) != depth or any(v not in (0, 1) for v in letters):
        raise ValueError(f"state must be a binary word of length {depth}")
    code = 0
    for v in letters:
        code = (code << 1) | v
    return code


def code_to_word(code: int, depth: int) -> Word:
    return Word(tuple((int(code) >> (depth - 1 - i)) & 1 for i in range(depth)))


def gestalt_model(depth: int = 12) -> ModelSpec:
    """Binary length-L states, L = depth >= 6; S_j prepends letter v(3-j-1) and truncates.

    States are integer-coded with the first letter as the most significant
    bit, so both maps are exact integer operations; dynamics agrees with the
    untruncated shift-state system on prefixes of length L-1.
    """
    if depth < 6:
        raise ValueError("depth must be at least 6")
    L = depth

    def prepend(pts, look_bit):
        codes = np.rint(pts[:, 0]).astype(np.int64)
        b = (codes >> look_bit) & 1
        return ((b << (L - 1)) | (codes >> 1)).astype(float)[:, None]

    def v0(pts):
        return prepend(pts, L - 3)

    def v1(pts):
        return prepend(pts, L - 2)

    def s0(x):
        c = int(x)
        return float((((c >> (L - 3)) & 1) << (L - 1)) | (c >> 1))

    def s1(x):
        c = int(x)
        return float((((c >> (L - 2)) & 1) << (L - 1)) | (c >> 1))

    def seed(delta):
        return np.arange(2**L, dtype=float)[:, None]

    return ModelSpec(
        name="gestalt",
        dim=1,
        maps=(v0, v1),
        scalar_maps=(s0, s1),
        lower=(0.0,),
        upper=(float(2**L - 1),),
        seeder=seed,
        discrete=True,
        seed_absorbing=True,
        dsigma_bits=L,
    )


GESTALT_OUTSIDER = UPString("000", "100")
"""The string 000(100)... : in the global attractor but in no individual one."""


# ---------------------------------------------------------------------------
# three-point animation of the golden+even presentation

THREE_POINTS = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (0.5, 1.0)}
_S0_TABLE = {"A": "B", "B": "C", "C": "B"}
_S1_TABLE = {"A": "A", "B": "B", "C": "A"}


def three_point_model() -> ModelSpec:
    """Three points A, B, C moved along the animated graph edges.

    S0: A>B, B>C, C>B and S1: A>A, B>B, C>A; S1(B) = B is the minimal
    totalization that yields the class limit sets {A,B} and {B,C}.

    Over the golden_even presentation the class limit sets are the
    per-vertex clouds of ``vertex_limits``: C_A = {A,B} and C_B = C_C =
    {B,C}.  A strategy slice is the union of these clouds over the
    strategy's start vertices, so it is {A,B,C} when A is a start vertex
    (as for (001)*) and {B,C} otherwise (as for (100)*).
    """
    names = tuple(sorted(THREE_POINTS))
    coords = np.array([THREE_POINTS[n] for n in names])

    def table_map(table):
        dst = np.array([THREE_POINTS[table[n]] for n in names])

        def vec(pts):
            match = np.all(np.abs(pts[:, None, :] - coords[None, :, :]) < 1e-9, axis=2)
            if not match.any(axis=1).all():
                raise ValueError("point is not one of the three model states")
            return dst[np.argmax(match, axis=1)]

        def scalar(pt):
            for n in names:
                if tuple(THREE_POINTS[n]) == tuple(pt):
                    return THREE_POINTS[table[n]]
            raise ValueError("point is not one of the three model states")

        return vec, scalar

    v0, s0 = table_map(_S0_TABLE)
    v1, s1 = table_map(_S1_TABLE)

    def seed(delta):
        return coords.copy()

    return ModelSpec(
        name="three_point",
        dim=2,
        maps=(v0, v1),
        scalar_maps=(s0, s1),
        lower=(0.0, 0.0),
        upper=(1.0, 1.0),
        seeder=seed,
        discrete=True,
        seed_absorbing=True,
    )


def label_cloud(cloud: PointCloud) -> frozenset:
    """Names of the three-point states present in a cloud."""
    labels = set()
    for row in cloud.points:
        for name, xy in THREE_POINTS.items():
            if tuple(row) == xy:
                labels.add(name)
                break
        else:
            raise ValueError(f"cloud point {tuple(row)} is not a named state")
    return frozenset(labels)


def points_cloud(names) -> PointCloud:
    """The exact cloud holding the named three-point states."""
    return PointCloud(np.array([THREE_POINTS[n] for n in sorted(names)]), 0.0)


# ---------------------------------------------------------------------------
# submodels and the registry


def submodel(model: ModelSpec, j: int) -> ModelSpec:
    """The N=1 model that always applies S_j."""
    if not 0 <= j < model.n_maps:
        raise ValueError(f"map index {j} out of range")
    return replace(
        model,
        name=f"{model.name}[{j}]",
        maps=(model.maps[j],),
        scalar_maps=(model.scalar_maps[j],),
    )


def _malaria_pset(params: dict, key: str) -> MalariaParams:
    """Set key, "pset0" or "pset1", from params at their dt; a set left out is PSET0 resp. PSET1."""
    dt = params.get("dt", PSET0.dt)
    try:
        return MalariaParams(**params[key], dt=dt) if key in params else replace(_PSETS[key], dt=dt)
    except TypeError as exc:
        raise ValueError(f"malaria params: {exc}") from None


def malaria_psets(params: dict) -> tuple:
    """(pset0, pset1) from params {"dt", "pset0", "pset1"}, as ``_malaria_pset`` reads them."""
    if set(params) - {"dt", "pset0", "pset1"}:
        raise ValueError(f"malaria reads only params ['dt', 'pset0', 'pset1'], got {sorted(params)}")
    return tuple(_malaria_pset(params, key) for key in _PSETS)


# model name -> (params keys it reads, builder from params)
_BUILDERS = {
    "malaria": (("dt", "pset0", "pset1"), lambda p: malaria_model(*malaria_psets(p))),
    "malaria0": (("dt", "pset0"), lambda p: submodel(malaria_model(_malaria_pset(p, "pset0")), 0)),
    "cantor": ((), lambda p: cantor_model()),
    "line": (("radius",), lambda p: line_counterexample(radius=p.get("radius", LINE_RADIUS))),
    "gestalt": (("depth",), lambda p: gestalt_model(**p)),
    "three_point": ((), lambda p: three_point_model()),
}
MODEL_NAMES = tuple(_BUILDERS)


def build_model(name: str, params: dict = None) -> ModelSpec:
    key = name.strip().lower()
    if key not in _BUILDERS:
        raise ValueError(f"unknown model {name!r}")
    reads, build = _BUILDERS[key]
    params = dict(params or {})
    if set(params) - set(reads):
        raise ValueError(f"model {key!r} reads only params {list(reads)}, got {sorted(params)}")
    return build(params)


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg
