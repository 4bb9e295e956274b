"""Independent brute-force references used by the tests.

These deliberately avoid the package's own implementation paths: the DCT
oracle is a direct quadruple loop over the transform definition, the TV
oracle evaluates the per-pixel difference formula with explicit Python
loops, the mask oracle draws one swap target per call, and the solver
oracle is the split-Bregman loop written with a fresh array for every
intermediate.
"""

from __future__ import annotations

import math

import numpy as np

from cstv.signal import ImageMatrix
from cstv.solver import MU, ReconstructionResult, SolverConfig, SolverFailure
from cstv.transform import _dct_basis


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

    Summed with math.fsum (exactly rounded) so the value does not depend
    on accumulation order.
    """
    n = x.shape[0]
    terms = []
    for i in range(n):
        for j in range(n):
            dx = x[i + 1, j] - x[i, j] if i < n - 1 else 0.0
            dy = x[i, j + 1] - x[i, j] if j < n - 1 else 0.0
            terms.append(math.sqrt(dx * dx + dy * dy))
    return math.fsum(terms)


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


def admm_reference(meas, config: SolverConfig) -> ReconstructionResult:
    """The scaled split-Bregman solve, allocating every intermediate and
    storing d itself rather than its divergence.

    Same iteration, stopping test and failure rule as ``reconstruct``; TV is
    :func:`naive_tv`.
    """
    rows, cols = meas.mask.rows, meas.mask.cols
    side = meas.mask.side
    c = _dct_basis(side)
    spec0 = np.zeros((side, side))
    spec0[rows, cols] = meas.values
    start = c.T @ spec0 @ c
    scale = naive_tv(start) / (side * side)
    if not math.isfinite(scale):
        raise SolverFailure(1)
    x = start
    iters_used, converged, history = 0, True, []
    if scale != 0.0:
        pinned = spec0 / scale
        a = 2.0 - 2.0 * np.cos(np.pi * np.arange(side) / side)
        lam = a[:, None] + a[None, :]
        weight = np.zeros_like(lam)
        weight[lam > 0.0] = 1.0 / lam[lam > 0.0]
        weight[rows, cols] = 0.0
        x = start / scale
        d = np.zeros((2, side, side))
        b = np.zeros((2, side, side))
        iters_used, converged = config.max_iters, False
        for k in range(1, config.max_iters + 1):
            rhs = _divergence(*b) - _divergence(*d)
            x_new = c.T @ ((c @ rhs @ c.T) * weight + pinned) @ c
            if k % config.log_every == 0:
                rel_change = float(np.linalg.norm(x_new - x)) / max(float(np.linalg.norm(x)), 1e-30)
                history.append((k, rel_change, naive_tv(x_new) * scale))
            x = x_new

            g = np.stack(_grad(x))
            u = g + b
            mag = np.sqrt(u[0] * u[0] + u[1] * u[1])
            shrunk = np.maximum(mag - 1.0 / MU, 0.0)
            d_new = u * (shrunk / np.maximum(mag, 1.0 / MU))
            primal = float(np.linalg.norm(g - d_new))
            primal_scale = max(float(np.linalg.norm(g)), float(np.linalg.norm(shrunk)))
            dual = MU * float(np.linalg.norm(_divergence(*d_new) - _divergence(*d)))
            b = u - d_new
            d = d_new
            dual_scale = MU * float(np.linalg.norm(_divergence(*b)))
            if not all(map(math.isfinite, (primal, primal_scale, dual, dual_scale))):
                raise SolverFailure(k)
            if primal <= config.tol * primal_scale and dual <= config.tol * dual_scale:
                iters_used, converged = k, True
                break
        x = x * scale

    final_spec = c @ x @ c.T
    residual = float(np.max(np.abs(final_spec[rows, cols] - meas.values)))
    return ReconstructionResult(
        image=ImageMatrix(x),
        iters_used=iters_used,
        final_tv=naive_tv(x),
        constraint_residual=residual,
        converged=converged,
        start=ImageMatrix(start),
        history=tuple(history),
    )
