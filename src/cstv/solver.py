"""Total-variation minimization under exact DCT-coefficient constraints.

Solves  minimize TV(X)  subject to  measured coefficients of DCT2(X) fixed
by split Bregman (Goldstein & Osher 2009), an ADMM on d = grad X with
penalty MU and scaled dual b.  -div(grad(.)) is diagonal in the orthonormal
DCT-II basis, with eigenvalues lambda_kl = 4 - 2 cos(pi k / side)
- 2 cos(pi l / side), so the X-update is exact and costs one DCT pair: the
free coefficients of DCT2(div(b) - div(d)) are divided by lambda_kl, and
the measured ones (and DC, where lambda is 0) keep their values.  There is
no step size.  d is grad X + b shrunk per pixel, isotropically, by 1/MU;
then b += grad X - d.

The solve runs in units of g = TV(X0) / side^2, the mean gradient
magnitude of the zero-filled start X0, and scales its result back by g.
TV is positively homogeneous, so one MU fits every amplitude; X0 is
returned as it is when TV(X0) = 0.  The solve stops when the primal
residual ||grad X - d|| and the dual residual MU ||div(d - d_prev)||
(Boyd et al. 2011, section 3.3) are at most tol times max(||grad X||,
||d||) and MU ||div b||; ``converged`` means exactly that.

No array is allocated after setup: every step writes into buffers made
once per call, through the ``out=`` forms of the operators the tests
check, and the norms are BLAS dot products over whole buffers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .sampling import MeasurementSet, project_constraint
from .signal import ImageMatrix
from .transform import _dct2, _idct2

Array = np.ndarray

MU = 2.0
"""ADMM penalty, in units of the start's mean gradient magnitude."""


class SolverFailure(RuntimeError):
    """A non-finite value appeared in the start's TV or a stopping norm."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"solver diverged at iteration {iteration}")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, relative residual tolerance and history spacing."""

    max_iters: int = 500
    tol: float = 1e-4
    log_every: int = 50

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class ReconstructionResult:
    image: ImageMatrix
    iters_used: int
    final_tv: float
    constraint_residual: float
    converged: bool
    start: ImageMatrix
    """The zero-filled start: measured coefficients, zeros elsewhere."""
    history: tuple[tuple[int, float, float], ...] = field(default=())
    """(iteration, relative primal change, tv) sampled every log_every."""


def grad(x: Array, out: tuple[Array, Array] | None = None) -> tuple[Array, Array]:
    """Per-pixel forward differences down rows (gx) and across columns (gy).

    Zero on the trailing boundary: the last row of gx and the last column
    of gy.  ``out`` is an optional C-contiguous (gx, gy) pair to write,
    distinct from x.
    """
    gx, gy = (np.empty_like(x, order="C"), np.empty_like(x, order="C")) if out is None else out
    if not gy.flags.c_contiguous:
        raise ValueError("gy must be C-contiguous")
    np.subtract(x[1:, :], x[:-1, :], out=gx[:-1, :])
    # one pass over the flattened rows; the differences that wrap from the
    # end of one row to the start of the next land in the zeroed last column
    flat = x.ravel()
    np.subtract(flat[1:], flat[:-1], out=gy.reshape(-1)[:-1])
    gx[-1, :] = 0.0
    gy[:, -1] = 0.0
    return gx, gy


def divergence(gx: Array, gy: Array, out: Array | None = None) -> Array:
    """Negative adjoint of :func:`grad`:  <grad X, P> == -<X, divergence(P)>
    for fields P that are zero on the trailing boundary.  ``out`` is an
    optional array to write, distinct from gx and gy."""
    div = np.empty_like(gx) if out is None else out
    np.copyto(div, gx)
    div[1:, :] -= gx[:-1, :]
    div += gy
    div[:, 1:] -= gy[:, :-1]
    return div


def tv(x: Array) -> float:
    """Isotropic total variation: sum of per-pixel gradient magnitudes."""
    # math.fsum is exactly rounded, which makes the value independent of
    # summation order and therefore bit-comparable against a loop oracle
    gx, gy = grad(x)
    return math.fsum(np.sqrt(gx * gx + gy * gy).ravel())


def reconstruct(meas: MeasurementSet, config: SolverConfig | None = None) -> ReconstructionResult:
    """Recover an image from a measurement set by constrained TV minimization.

    Starts from the zero-filled spectrum (feasible by construction).  Raises
    :class:`SolverFailure` when TV of the start (as iteration 1) or a norm
    of the stopping test is not finite.
    """
    config = config or SolverConfig()
    side = meas.mask.side
    pinned = np.zeros((side, side))
    project_constraint(pinned, meas)
    start = _idct2(pinned)
    start_tv = tv(start)
    if not math.isfinite(start_tv):
        raise SolverFailure(1)
    # a start without variation is optimal, and no iteration runs
    converged = start_tv == 0.0
    iters_used = 0 if converged else config.max_iters
    scale = start_tv / (side * side) or 1.0
    np.divide(pinned, scale, out=pinned)
    a = 2.0 - 2.0 * np.cos(np.pi * np.arange(side) / side)
    # 1 / lambda_kl on the free coefficients; 0 at DC, where lambda is 0
    weight = np.add.outer(a, a)
    np.divide(1.0, weight, out=weight, where=weight > 0.0)
    weight[meas.mask.rows, meas.mask.cols] = 0.0

    # d is never stored: each iteration makes it from grad x + b and keeps
    # div(d).  rhs holds div(b) - div(d) for the x-update.
    x = start / scale
    rhs, div_d = np.zeros_like(x), np.zeros_like(x)
    spec, work = np.empty_like(x), np.empty_like(x)
    g, b = np.empty((2, side, side)), np.zeros((2, side, side))
    history: list[tuple[int, float, float]] = []

    for k in range(1, iters_used + 1):
        _dct2(rhs, out=spec, work=work)
        np.multiply(spec, weight, out=spec)
        np.add(spec, pinned, out=spec)
        x_new = _idct2(spec, out=rhs, work=work)
        if k % config.log_every == 0:
            change = float(np.linalg.norm(np.subtract(x_new, x, out=work)))
            history.append((k, change / max(float(np.linalg.norm(x)), 1e-30), tv(x_new) * scale))
        x, mag = x_new, x

        # b becomes u = grad x + b; mag holds |u| per pixel, then the factor
        # that shrinks u to d
        gx = grad(x, out=(g[0], g[1]))
        grad_norm = float(np.linalg.norm(g))
        np.add(b, g, out=b)
        np.multiply(b[0], b[0], out=mag)
        np.add(mag, np.multiply(b[1], b[1], out=work), out=mag)
        np.sqrt(mag, out=mag)
        np.maximum(np.subtract(mag, 1.0 / MU, out=work), 0.0, out=work)
        d_norm = float(np.linalg.norm(work))
        np.divide(work, np.maximum(mag, 1.0 / MU, out=mag), out=mag)
        for c in range(2):
            np.subtract(gx[c], np.multiply(b[c], mag, out=work), out=g[c])
        primal = float(np.linalg.norm(g))
        for c in range(2):
            np.multiply(b[c], mag, out=g[c])
        np.subtract(b, g, out=b)
        new_div_d = divergence(g[0], g[1], out=work)
        dual = MU * float(np.linalg.norm(np.subtract(new_div_d, div_d, out=mag)))
        div_d, work = new_div_d, div_d
        div_b = divergence(b[0], b[1], out=mag)
        dual_scale = MU * float(np.linalg.norm(div_b))
        rhs = np.subtract(div_b, div_d, out=mag)

        primal_scale = max(grad_norm, d_norm)
        if not all(map(math.isfinite, (primal, primal_scale, dual, dual_scale))):
            raise SolverFailure(k)
        if primal <= config.tol * primal_scale and dual <= config.tol * dual_scale:
            iters_used, converged = k, True
            break

    np.multiply(x, scale, out=x)
    final_spec = _dct2(x)
    residual = float(np.max(np.abs(final_spec[meas.mask.rows, meas.mask.cols] - meas.values)))
    return ReconstructionResult(image=ImageMatrix(x), iters_used=iters_used, final_tv=tv(x),
                                constraint_residual=residual, converged=converged,
                                start=ImageMatrix(start), history=tuple(history))


def load_solver_config(path: str | Path) -> SolverConfig:
    """Read a config from JSON or from ``key = value`` lines.

    The recognized keys are the fields of :class:`SolverConfig`.
    """
    text = Path(path).read_text()
    entries: dict[str, str] = {}
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: config JSON must be an object")
        entries = {str(k): str(v) for k, v in obj.items()}
    except json.JSONDecodeError:
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            sep = "=" if "=" in line else (":" if ":" in line else None)
            if sep is None:
                raise ValueError(f"{path}: cannot parse config line {raw!r}")
            key, value = line.split(sep, 1)
            entries[key.strip()] = value.strip()
    # every field has a default (SolverConfig() is the default config), and
    # the default's type is the field's type
    casts = {f.name: type(f.default) for f in fields(SolverConfig)}
    unknown = set(entries) - set(casts)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return SolverConfig(**{key: casts[key](value) for key, value in entries.items()})
