"""Item response functions and the constrained curve fits built on them.

Covers the 4PL family (with 1PL/2PL/3PL as constrained constructors on
Irf4pl), the compensatory multidimensional variant, a random-walk dynamic
ability simulator, and a weighted least-squares fit of the asymptote pair
(c, d) at fixed discrimination.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFit, DimensionMismatch, InsufficientData, OutOfRange
from .params import DynamicIrtConfig, Irf4pl, MirtIrf
from .rng import RngKey


def logistic(z):
    """Overflow-safe standard logistic, elementwise on arrays."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def irf_4pl(theta, item: Irf4pl):
    """P(correct | theta) = c + (d - c) * logistic(a * (theta - b)).

    Clamped to [c, d]: at saturation the affine form can overshoot an
    asymptote by one rounding ulp. A product a * (theta - b) past the float
    range becomes +-inf, whose logistic is the exact asymptote, so its
    overflow is not warned about.
    """
    with np.errstate(over="ignore"):
        z = item.a * (np.asarray(theta, dtype=float) - item.b)
    raw = item.c + (item.d - item.c) * logistic(z)
    clipped = np.clip(raw, item.c, item.d)
    return float(clipped) if np.ndim(clipped) == 0 else clipped


def irf_slope_max(item: Irf4pl) -> float:
    """Maximum slope of the response curve, attained at theta = b: a(d-c)/4."""
    return item.a * (item.d - item.c) / 4.0


def irf_mirt(theta, item: MirtIrf) -> float:
    """Compensatory multidimensional response probability.

    c + (d - c) * logistic(loadings . theta + beta); raising any ability
    component with a positive loading never lowers the value.
    """
    theta = np.asarray(theta, dtype=float)
    loadings = np.asarray(item.loadings, dtype=float)
    if theta.shape != loadings.shape:
        raise DimensionMismatch(
            f"ability dimension {theta.shape} != loadings dimension {loadings.shape}"
        )
    raw = item.c + (item.d - item.c) * logistic(float(loadings @ theta) + item.beta)
    return float(min(max(raw, item.c), item.d))


def simulate_dynamic_irt(
    config: DynamicIrtConfig, steps: int, key: RngKey
) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk ability with per-attempt Bernoulli responses to every item.

    theta_path[0] equals theta0; each later attempt adds one Gaussian drift
    step, so Var(theta_path[t] - theta0) = t * noise_sd**2. responses[t, i]
    is Bernoulli(logistic(theta_path[t] - difficulties[i])). Draw layout:
    steps-1 normal increments, then a (steps, n_items) uniform block.
    """
    if steps < 1:
        raise OutOfRange(f"steps must be >= 1, got {steps}")
    gen = key.generator()
    increments = gen.standard_normal(steps - 1) * config.noise_sd
    theta_path = config.theta0 + np.concatenate([[0.0], np.cumsum(increments)])

    difficulties = np.asarray(config.difficulties, dtype=float)
    uniforms = gen.random((steps, difficulties.size))
    probs = logistic(theta_path[:, None] - difficulties[None, :])
    responses = (uniforms < probs).astype(np.uint8)
    return theta_path, responses


def fit_irf_cd(
    binned: list[tuple[float, float, float]],
    a_fixed: float,
) -> tuple[float, float, float]:
    """Count-weighted least-squares (c, d) for p = c + (d-c)*logistic(a*x).

    ``binned`` holds (advantage x, observed proportion, count) rows; rows with
    zero count are ignored. The model is linear in (c, d) through the basis
    (1 - s, s) with s = logistic(a_fixed * x), so the loss is a convex
    quadratic in (c, d), minimized over the triangle 0 <= c <= d <= 1: the
    unconstrained optimum when it lies inside, else the best of the minima
    along the edges c = 0, d = 1 and c = d. On c = d (flat or inverted data)
    c and d are separated by one ulp to keep c < d. Returns (c, d, weighted
    RMSE of the fit).
    """
    if a_fixed <= 0:
        raise OutOfRange(f"a_fixed must be > 0, got {a_fixed}")
    rows = [(float(x), float(p), float(n)) for x, p, n in binned if n > 0]
    if len(rows) < 2:
        raise InsufficientData(
            f"need at least 2 bins with positive count, got {len(rows)}"
        )
    x = np.array([r[0] for r in rows])
    p = np.array([r[1] for r in rows])
    w = np.array([r[2] for r in rows])
    if np.all(x == x[0]):
        raise DegenerateFit("all advantage values equal; (c, d) not separable")

    s = logistic(a_fixed * x)
    basis = np.stack([1.0 - s, s], axis=1)
    normal = basis.T @ (w[:, None] * basis)
    rhs = basis.T @ (w * p)
    det = normal[0, 0] * normal[1, 1] - normal[0, 1] * normal[1, 0]
    if det <= 0 or not np.isfinite(det):
        raise DegenerateFit("weighted design is rank-deficient")
    c_hat = (normal[1, 1] * rhs[0] - normal[0, 1] * rhs[1]) / det
    d_hat = (normal[0, 0] * rhs[1] - normal[1, 0] * rhs[0]) / det

    def loss(cd) -> float:
        return float(np.sum(w * (p - cd[0] - (cd[1] - cd[0]) * s) ** 2) / np.sum(w))

    if not 0.0 <= c_hat < d_hat <= 1.0:
        # The minimum lies on an edge start + t * step, 0 <= t <= 1, where
        # the quadratic's own minimizer along the edge is clipped into range.
        edges = (((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, 1.0)))
        candidates = []
        for start, step in map(np.array, edges):
            t = (rhs @ step - step @ normal @ start) / (step @ normal @ step)
            candidates.append(start + float(np.clip(t, 0.0, 1.0)) * step)
        c_hat, d_hat = min(candidates, key=loss)
    c_hat, d_hat = float(c_hat), float(d_hat)
    if c_hat >= d_hat:
        c_hat, d_hat = float(np.nextafter(c_hat, 0.0)), min(float(np.nextafter(d_hat, 2.0)), 1.0)
    return c_hat, d_hat, float(np.sqrt(loss((c_hat, d_hat))))
