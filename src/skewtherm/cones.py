"""Regularity cones, the projective metric on them, and contraction reports.

The cone with constant K holds positive functions whose alpha-seminorm is at
most K times their infimum.  The projective distance between two cone
elements is computed from the explicit triple-ratio formulas: their extremes
are reached by Newton steps on the active triple, in O(n^2) memory for n
nodes; a positive operator whose image has projective diameter M contracts
the metric by tanh(M/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import BasePoint
from .errors import (
    ConeEscapeError,
    ConeViolationError,
    NonpositiveDenominatorError,
)
from .fibers import DIAM_Y, MpFamily
from .gridfn import GridFn
from .operators import _check_positive, fiber_stencil
from .potential import TrigPotential

MAX_SEMINORM_NODES = 4096
# margin-sampler cone elements per image diameter, besides the witnesses
_CONE_SAMPLES = 20
# the margin sampler's cosine modes; the extremal witnesses' highest mode,
# and the fraction of the cone bound their seminorm reaches
_SAMPLE_MODES = 3
_WITNESS_MODES = 4
_WITNESS_FRACTION = 0.98


@dataclass(frozen=True)
class ConeParams:
    """Cone constant and regularity exponent."""

    K: float
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        # needed so sup/inf <= 2 K diam^alpha holds for every cone element
        if self.K < DIAM_Y ** (-self.alpha):
            raise ValueError(
                f"K must be at least diam(Y)^-alpha = {DIAM_Y ** -self.alpha:.6g}")


def holder_seminorm(psi: GridFn, alpha: float) -> float:
    """Grid lower bound of the alpha-seminorm: max pair quotient over nodes.

    Scans circle lags, so the cost is O(N^2) with a small constant.
    """
    v = psi.values
    n = v.size
    if n > MAX_SEMINORM_NODES:
        raise ValueError(f"seminorm pair scan capped at {MAX_SEMINORM_NODES} nodes")
    doubled = np.concatenate([v, v])
    buf = np.empty(n)
    best = 0.0
    for lag in range(1, n // 2 + 1):
        np.subtract(v, doubled[lag:lag + n], out=buf)
        np.abs(buf, out=buf)
        best = max(best, float(buf.max()) / (lag / n) ** alpha)
    return best


def in_cone(psi: GridFn, cone: ConeParams) -> bool:
    """Positivity at all nodes plus the seminorm-versus-infimum inequality."""
    if np.any(psi.values <= 0.0):
        return False
    return holder_seminorm(psi, cone.alpha) <= cone.K * float(np.min(psi.values))


def _downsample(values: np.ndarray, n_target: int) -> np.ndarray:
    step = values.size // n_target
    if step * n_target != values.size:
        raise ValueError("cone-metric size must divide the grid size")
    return values[::step]


def hilbert_distance(phi: GridFn, psi: GridFn, cone: ConeParams,
                     n_theta: int = 64) -> float:
    """Projective distance log(B/A) from the explicit triple-ratio formulas.

    A and B are the extreme values over node triples (z1 != z2, z3) of

        (K d(z1,z2)^alpha psi(z3) - (psi(z1) - psi(z2)))
        / (K d(z1,z2)^alpha phi(z3) - (phi(z1) - phi(z2)))

    plus the pure ratios psi(z3)/phi(z3) covering the d(z1,z2) -> 0 limit.
    Functions are downsampled to n_theta nodes first, so the result is a grid
    approximation of the metric.  Each extreme is reached exactly by Newton
    steps over the active triple (``_upper_ratio``), in a few n_theta^2
    doubles of memory instead of the n_theta^3 triples.
    """
    if not in_cone(phi, cone):
        raise ConeViolationError("reference function outside the cone")
    if not in_cone(psi, cone):
        raise ConeViolationError("test function outside the cone")
    f = _downsample(phi.values, n_theta)
    g = _downsample(psi.values, n_theta)
    return _active_triple_distance(f, g, cone)


def _active_triple_distance(f: np.ndarray, g: np.ndarray, cone: ConeParams) -> float:
    """log(B/A) on already-downsampled node values, with A = -B(f, -g)."""
    n = f.size
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    dist = np.minimum(lag, n - lag) / n
    w = cone.K * dist ** cone.alpha
    # on the z1 == z2 diagonal the triple ratio becomes the pure ratio g/f
    np.fill_diagonal(w, 1.0)
    df = f[:, None] - f[None, :]
    # per pair the smallest denominator w f(z3) - df sits at min f
    if np.any(w * np.min(f) - df <= 0.0):
        raise NonpositiveDenominatorError(
            "triple denominator <= 0: reference function on the cone boundary")
    b = _upper_ratio(f, g, w, df)
    a = -_upper_ratio(f, -g, w, df)
    return math.inf if a <= 0.0 else math.log(b / a)


def _upper_ratio(f: np.ndarray, g: np.ndarray, w: np.ndarray, df: np.ndarray) -> float:
    """Largest triple ratio (w g3 - dg) / (w f3 - df) by Newton steps.

    With every denominator positive, t bounds all ratios exactly when the gap
    min(t f - g) - max((t df - dg) / w) is >= 0.  The gap is increasing,
    concave and piecewise linear in t, so Newton steps from t = max g/f rise
    through triple ratios and stop on the largest: each step moves t to the
    ratio of the active triple, the pair maximising (t df - dg) / w with the
    node minimising t f - g.
    """
    dg = g[:, None] - g[None, :]
    t = float(np.max(g / f))
    while True:
        i, j = np.unravel_index(np.argmax((t * df - dg) / w), w.shape)
        k = np.argmin(t * f - g)
        r = float((w[i, j] * g[k] - dg[i, j]) / (w[i, j] * f[k] - df[i, j]))
        if not r > t:
            return t
        t = r


def positive_cone_distance(phi: GridFn, psi: GridFn) -> float:
    """Projective distance w.r.t. the plain positive cone (atomic duals only).

    Equals log of max(phi/psi) * max(psi/phi) over nodes and lower-bounds the
    regularity-cone distance.
    """
    f, g = phi.values, psi.values
    if np.any(f <= 0.0) or np.any(g <= 0.0):
        raise ConeViolationError("positive-cone distance needs positive values")
    return float(np.log(np.max(g / f)) + np.log(np.max(f / g)))


def sample_cone_functions(cone: ConeParams, n_nodes: int, count: int,
                          rng: np.random.Generator) -> list[GridFn]:
    """Random cone elements 1 + sum a_k cos(2 pi k y + theta_k).

    Amplitudes are scaled so sum |a_k| 2 pi k <= K/4 and sum |a_k| <= 1/2,
    which keeps every sample inside the cone with a factor-2 margin.
    """
    ys = np.arange(n_nodes, dtype=float) / n_nodes
    ks = np.arange(1, _SAMPLE_MODES + 1)
    out = []
    for _ in range(count):
        raw = rng.uniform(-1.0, 1.0, size=_SAMPLE_MODES)
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=_SAMPLE_MODES)
        lip = np.sum(np.abs(raw) * 2.0 * math.pi * ks)
        amp = np.sum(np.abs(raw))
        scale = min(cone.K / 4.0 / lip, 0.5 / amp) * rng.uniform(0.2, 1.0)
        a = raw * scale
        vals = 1.0 + np.sum(
            a[:, None] * np.cos(2.0 * math.pi * ks[:, None] * ys[None, :]
                                + thetas[:, None]), axis=0)
        out.append(GridFn(vals))
    return out


def extremal_witness_functions(cone: ConeParams, n_nodes: int) -> list[GridFn]:
    """Single-mode cone elements pushed close to the cone boundary.

    The margin sampler alone badly under-measures the image diameter (its
    images hug the constant function), so diameter estimates append these
    deterministic witnesses: for each frequency k = 1 .. _WITNESS_MODES and
    quarter-turn phase, the largest-amplitude 1 + A cos(2 pi k y + theta)
    whose seminorm is _WITNESS_FRACTION of the cone bound.
    """
    ys = np.arange(n_nodes, dtype=float) / n_nodes
    out = []
    for k in range(1, _WITNESS_MODES + 1):
        for theta in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            shape = np.cos(2.0 * math.pi * k * ys + theta)
            s0 = holder_seminorm(GridFn(shape - shape.min() + 1.0), cone.alpha)
            m0 = float(np.max(np.abs(shape)))
            amp = _WITNESS_FRACTION * cone.K / (s0 + _WITNESS_FRACTION * cone.K * m0)
            out.append(GridFn(1.0 + amp * shape))
    return out


@dataclass(frozen=True)
class ContractionReport:
    """Measured image diameter and the contraction factor it implies."""

    m_emp: float
    tau: float
    zeta_emp: float
    samples: int

    def to_json(self) -> dict:
        return {"m_emp": self.m_emp, "tau": self.tau,
                "zeta_emp": self.zeta_emp, "samples": self.samples}


def image_diameter(pot: TrigPotential, family: MpFamily, x: BasePoint,
                   cone: ConeParams,
                   rng: np.random.Generator | None = None,
                   zeta: float | None = None,
                   n_nodes: int = 512, n_theta: int = 64) -> ContractionReport:
    """Push sampled cone elements through one fiber transfer step and measure
    the projective diameter of the image set.

    The sample set is _CONE_SAMPLES draws of the margin sampler plus the
    deterministic extremal witnesses, without which the measured diameter
    is far below the contraction factor actually observed on close pairs.
    zeta_emp records the largest image seminorm-to-infimum ratio divided by
    K; when the analytic contraction factor ``zeta`` is supplied, an image
    whose ratio exceeds min(1, 1.05 * zeta) raises ConeEscapeError.
    """
    rng = rng or np.random.default_rng(0)
    fns = sample_cone_functions(cone, n_nodes, _CONE_SAMPLES, rng)
    fns.extend(extremal_witness_functions(cone, n_nodes))
    stencil = fiber_stencil(pot, family, x, n_nodes)
    images = []
    zeta_emp = 0.0
    for fn in fns:
        _check_positive(fn)
        img = stencil.step(fn)
        ratio = holder_seminorm(img, cone.alpha) / (
            cone.K * float(np.min(img.values)))
        zeta_emp = max(zeta_emp, ratio)
        if zeta is not None and ratio > min(1.0, 1.05 * zeta):
            raise ConeEscapeError(
                f"image seminorm ratio {ratio:.4g} left the contracted cone "
                f"(zeta = {zeta:.4g})")
        images.append(img)
    m_emp = 0.0
    downsampled = [_downsample(img.values, n_theta) for img in images]
    for i in range(len(downsampled)):
        for j in range(i + 1, len(downsampled)):
            m_emp = max(m_emp, _active_triple_distance(downsampled[i],
                                                       downsampled[j], cone))
    return ContractionReport(m_emp=m_emp, tau=math.tanh(m_emp / 4.0),
                             zeta_emp=zeta_emp, samples=len(fns))
