"""Independent brute-force references used by the tests.

These deliberately avoid the package's own implementation paths: the DCT
oracle is a direct quadruple loop over the transform definition, the TV
oracle evaluates the per-pixel difference formula with explicit Python
loops, the mask oracle draws one swap target per call, and the solver
oracle is the over-relaxed split-Bregman loop written with a fresh array
for every intermediate.  The two feasibility helpers at the end are not
oracles: they measure a result through the package's own transform.
"""

from __future__ import annotations

import math

import numpy as np

from cstv.sampling import draw_mask, measure
from cstv.signal import Signal1D, reshape_to_image
from cstv.solver import MU, RELAX, ReconstructionResult, SolverConfig, SolverFailure
from cstv.transform import _dct2, _dct_basis


def naive_dct2(x: np.ndarray) -> np.ndarray:
    """O(n^4) orthonormal 2D DCT-II straight from the definition."""
    n = x.shape[0]
    out = np.zeros((n, n), dtype=np.float64)
    for k in range(n):
        for l in range(n):
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    acc += (
                        x[i, j]
                        * math.cos(math.pi * (2 * i + 1) * k / (2 * n))
                        * math.cos(math.pi * (2 * j + 1) * l / (2 * n))
                    )
            ak = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
            al = math.sqrt(1.0 / n) if l == 0 else math.sqrt(2.0 / n)
            out[k, l] = ak * al * acc
    return out


def naive_tv(x: np.ndarray) -> float:
    """Double-loop isotropic TV with forward differences, zero at borders.

    Each magnitude is the C library's hypot, as numpy's (math.hypot rounds
    about one pair in 200 differently).  Summed with math.fsum (exactly
    rounded) so the value does not depend on accumulation order; inf when
    that sum of finite magnitudes exceeds the float range.
    """
    n = x.shape[0]
    terms = []
    for i in range(n):
        for j in range(n):
            dx = x[i + 1, j] - x[i, j] if i < n - 1 else 0.0
            dy = x[i, j + 1] - x[i, j] if j < n - 1 else 0.0
            terms.append(float(np.hypot(dx, dy)))
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def zigzag_by_hand(side: int) -> list[tuple[int, int]]:
    """Enumerate anti-diagonals directly, alternating direction."""
    positions = []
    for s in range(2 * side - 1):
        diag = [(r, s - r) for r in range(side) if 0 <= s - r < side]
        if s % 2 == 0:
            diag = sorted(diag, key=lambda rc: -rc[0])
        else:
            diag = sorted(diag, key=lambda rc: rc[0])
        positions.extend(diag)
    return positions


def scalar_draw_ranks(side: int, ratio: float, seed: int) -> np.ndarray:
    """Partial Fisher-Yates with one ``rng.integers`` call per swap, sorted."""
    n = side * side
    m = min(max(int(round(ratio * n)), 1), n)
    rng = np.random.default_rng(seed)
    ranks = np.arange(n, dtype=np.int64)
    for i in range(m):
        j = i + int(rng.integers(n - i))
        ranks[i], ranks[j] = ranks[j], ranks[i]
    return np.sort(ranks[:m])


def _grad(x):
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gx[:-1, :] = x[1:, :] - x[:-1, :]
    gy[:, :-1] = x[:, 1:] - x[:, :-1]
    return gx, gy


def _divergence(gx, gy):
    div = gx.copy()
    div[1:, :] -= gx[:-1, :]
    div += gy
    div[:, 1:] -= gy[:, :-1]
    return div


def _norm(a):
    """The Euclidean norm as the solver takes it: a dot product in a's
    dtype, its square root in float64."""
    v = a.ravel()
    return math.sqrt(v @ v)


def admm_reference(meas, config: SolverConfig, dtype=None) -> ReconstructionResult:
    """The scaled, over-relaxed split-Bregman solve, allocating every
    intermediate and taking div(d) afresh each time it is needed.

    Same iteration, stopping test, residual record and failure rule as
    ``reconstruct``, with its arithmetic in the same order (the forward DCT
    multiplies by the same C-contiguous copy of C.T) and in the same dtype,
    ``config.dtype`` unless ``dtype`` is given; DC held at 0 in the
    iterations and the float64 re-pin after them, as there.  TV is
    :func:`naive_tv`.
    """
    dtype = np.dtype(config.dtype if dtype is None else dtype)
    rows, cols = meas.mask.rows, meas.mask.cols
    side = meas.mask.side
    c = _dct_basis(side)
    ct = np.ascontiguousarray(c.T)
    spec0 = np.zeros((side, side))
    spec0[rows, cols] = meas.values
    start = c.T @ spec0 @ c
    scale = naive_tv(start) / (side * side)
    if not math.isfinite(scale):
        raise SolverFailure(1)
    a = 2.0 - 2.0 * np.cos(np.pi * np.arange(side) / side)
    lam = a[:, None] + a[None, :]
    weight = np.zeros_like(lam)
    weight[lam > 0.0] = 1.0 / lam[lam > 0.0]
    weight[rows, cols] = 0.0
    x = start
    iters_used, converged, residuals = 0, True, []
    if scale != 0.0 and np.any(weight != 0.0):
        weight = weight.astype(dtype)
        pinned = (spec0 / scale).astype(dtype)
        pinned[0, 0] = 0.0
        c_loop = _dct_basis(side, dtype)
        ct_loop = np.ascontiguousarray(c_loop.T)
        d = np.zeros((2, side, side), dtype)
        b = np.zeros((2, side, side), dtype)
        iters_used, converged = config.max_iters, False
        for k in range(1, config.max_iters + 1):
            rhs = _divergence(*b) - _divergence(*d)
            x = c_loop.T @ ((c_loop @ rhs @ ct_loop) * weight + pinned) @ c_loop

            g = np.stack(_grad(x))
            u = (b + (1.0 - RELAX) * d) + RELAX * g
            mag = np.sqrt(u[0] * u[0] + u[1] * u[1])
            shrunk = np.maximum(mag - 1.0 / MU, 0.0)
            d_new = u * (shrunk / np.maximum(mag, 1.0 / MU))
            primal = _norm(g - d_new)
            primal_scale = max(_norm(g), _norm(shrunk))
            dual = MU * _norm(_divergence(*d_new) - _divergence(*d))
            b = u - d_new
            d = d_new
            dual_scale = MU * _norm(_divergence(*b))
            residuals.append((primal, primal_scale, dual, dual_scale))
            if not all(map(math.isfinite, (primal, primal_scale, dual, dual_scale))):
                raise SolverFailure(k, tuple(residuals))
            if primal <= config.tol * primal_scale and dual <= config.tol * dual_scale:
                iters_used, converged = k, True
                break
        spectrum = c @ (x.astype(np.float64) * scale) @ ct
        spectrum[rows, cols] = meas.values
        x = c.T @ spectrum @ c

    return ReconstructionResult(
        image=x,
        iters_used=iters_used,
        final_tv=naive_tv(x),
        converged=converged,
        start=start,
        residuals=tuple(residuals),
    )


def constraint_gap(image: np.ndarray, meas) -> float:
    """Largest deviation of the image's DCT from the measured values, over
    the kept positions."""
    return float(np.max(np.abs(_dct2(image)[meas.mask.rows, meas.mask.cols] - meas.values)))


def pipeline_measurements(signal: Signal1D, ratio: float, seed: int):
    """The measurement set ``recover_signal`` solves for: the centred
    signal's image, measured at the mask drawn for (ratio, seed)."""
    image = reshape_to_image(signal.samples - np.mean(signal.samples))
    return measure(_dct2(image), draw_mask(image.shape[0], ratio, seed))
