"""Independent brute-force references used by the tests.

These deliberately avoid the package's own implementation paths: the DCT
oracle is a direct quadruple loop over the transform definition, the TV
oracle evaluates the per-pixel difference formula with explicit Python
loops, the mask oracle draws one swap target per call, and the solver
oracle is the PDHG loop written with a fresh array for every intermediate.
"""

from __future__ import annotations

import math

import numpy as np

from cstv.signal import ImageMatrix
from cstv.solver import ReconstructionResult, SolverConfig, SolverFailure
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


def pdhg_reference(meas, config: SolverConfig) -> ReconstructionResult:
    """The constrained-TV PDHG solve, allocating every intermediate.

    Same iteration, stopping test and failure rule as ``reconstruct``; the
    stopping norms are summed with ``np.sum``, and TV is :func:`naive_tv`.
    """
    rows, cols = meas.mask.rows, meas.mask.cols
    c = _dct_basis(meas.mask.side)
    spec0 = np.zeros((meas.mask.side, meas.mask.side))
    spec0[rows, cols] = meas.values
    x = c.T @ spec0 @ c
    x_bar = x.copy()
    px = np.zeros_like(x)
    py = np.zeros_like(x)

    sigma = config.step_dual
    tau = config.step_primal
    floor = 1e-30
    history = []
    iters_used = config.max_iters
    converged = False

    for k in range(1, config.max_iters + 1):
        gx, gy = _grad(x_bar)
        px_new = px + sigma * gx
        py_new = py + sigma * gy
        mag = np.sqrt(px_new * px_new + py_new * py_new)
        np.maximum(mag, 1.0, out=mag)
        px_new /= mag
        py_new /= mag
        dual_change = float(np.sqrt(np.sum((px_new - px) ** 2 + (py_new - py) ** 2)))
        dual_norm = max(float(np.sqrt(np.sum(px * px + py * py))), floor)
        px, py = px_new, py_new

        x_new = x + tau * _divergence(px, py)
        spec = c @ x_new @ c.T
        spec[rows, cols] = meas.values
        x_new = c.T @ spec @ c

        primal_change = float(np.linalg.norm(x_new - x))
        primal_norm = max(float(np.linalg.norm(x)), floor)
        if not all(map(math.isfinite, (dual_change, dual_norm, primal_change, primal_norm))):
            raise SolverFailure(k)
        x_bar = 2.0 * x_new - x
        x = x_new

        rel_primal = primal_change / primal_norm
        if k % config.log_every == 0:
            history.append((k, rel_primal, naive_tv(x)))
        if rel_primal < config.tol and dual_change / dual_norm < config.tol:
            iters_used = k
            converged = True
            break

    final_spec = c @ x @ c.T
    residual = float(np.max(np.abs(final_spec[rows, cols] - meas.values)))
    return ReconstructionResult(
        image=ImageMatrix(x),
        iters_used=iters_used,
        final_tv=naive_tv(x),
        constraint_residual=residual,
        converged=converged,
        history=tuple(history),
    )
