"""Total-variation minimization under exact DCT-coefficient constraints.

Solves

    minimize  TV(X)  subject to  measured coefficients of DCT2(X) fixed

with a first-order primal-dual scheme: each iteration takes one dual
ascent step on the TV term (per-pixel gradients, clamped to the unit
Euclidean ball), then a primal step through the divergence, and finally
projects the iterate back onto the constraint set by overwriting the
measured DCT coefficients.  Because the transform is orthonormal, that
overwrite is the exact Euclidean projection, so every iterate is feasible.

Stability requires step_primal * step_dual * 8 <= 1; the squared operator
norm of the discrete gradient is at most 8.

Stopping needs care.  The composition div(grad(.)) is diagonal in the
DCT-II basis, so while no dual pixel is clamped the whole primal update is
annihilated by the constraint projection and the image does not move even
though the solve has barely started.  Convergence is therefore declared
only when the relative change of the primal iterate AND of the dual
variable both fall below tol.

The iteration allocates no array after setup: every step writes into
buffers made once per call, through the ``out=`` forms of the operators
the tests check, so the iterates are bit-identical to the allocating
forms.  The stopping norms are BLAS dot products over whole buffers, as
``np.linalg.norm`` computes them, rather than sums over fresh temporaries.
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

GRAD_SQ_NORM_BOUND = 8.0


class SolverFailure(RuntimeError):
    """A non-finite value appeared in an iteration's stopping norms."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"solver diverged at iteration {iteration}")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, stopping tolerance and step sizes.

    Defaults satisfy the stability bound with a small slack
    (8 * 0.35 * 0.35 = 0.98).
    """

    max_iters: int = 500
    tol: float = 1e-6
    step_primal: float = 0.35
    step_dual: float = 0.35
    log_every: int = 50

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")
        if self.step_primal <= 0.0 or self.step_dual <= 0.0:
            raise ValueError("step sizes must be positive")
        if self.step_primal * self.step_dual * GRAD_SQ_NORM_BOUND > 1.0 + 1e-12:
            raise ValueError("unstable steps: step_primal * step_dual * 8 must be <= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass(frozen=True)
class ReconstructionResult:
    image: ImageMatrix
    iters_used: int
    final_tv: float
    constraint_residual: float
    converged: bool
    history: tuple[tuple[int, float, float], ...] = field(default=())
    """(iteration, relative primal change, tv) sampled every log_every."""


def grad(x: Array, out: tuple[Array, Array] | None = None) -> tuple[Array, Array]:
    """Per-pixel forward differences down rows (gx) and across columns (gy).

    Zero on the trailing boundary: the last row of gx and the last column
    of gy.  ``out`` is an optional (gx, gy) pair to write, distinct from x.
    """
    gx, gy = (np.empty_like(x), np.empty_like(x)) if out is None else out
    np.subtract(x[1:, :], x[:-1, :], out=gx[:-1, :])
    np.subtract(x[:, 1:], x[:, :-1], out=gy[:, :-1])
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
    """Recover an image from a measurement set by constrained TV descent.

    Starts from the zero-filled spectrum (feasible by construction) and
    iterates dual ascent / primal step / constraint projection until both
    primal and dual relative changes drop below config.tol, or max_iters.
    Raises :class:`SolverFailure` when a norm of that test is not finite.
    """
    if config is None:
        config = SolverConfig()
    side = meas.mask.side
    spec = np.zeros((side, side), dtype=np.float64)
    project_constraint(spec, meas)
    work = np.empty_like(spec)
    x = _idct2(spec)
    x_new = np.empty_like(x)
    x_bar = x.copy()
    # the dual field (px, py) is stacked so that one dot product gives its
    # norm; g holds the gradient and then the next dual field
    p = np.zeros((2, side, side))
    g = np.empty_like(p)
    mag = np.empty_like(x)

    sigma = config.step_dual
    tau = config.step_primal
    floor = 1e-30
    history: list[tuple[int, float, float]] = []
    iters_used = config.max_iters
    converged = False

    for k in range(1, config.max_iters + 1):
        grad(x_bar, out=(g[0], g[1]))
        np.multiply(g, sigma, out=g)
        np.add(p, g, out=g)
        np.multiply(g[0], g[0], out=mag)
        np.add(mag, np.multiply(g[1], g[1], out=work), out=mag)
        np.sqrt(mag, out=mag)
        np.maximum(mag, 1.0, out=mag)
        np.divide(g, mag, out=g)
        dual_norm = max(float(np.linalg.norm(p)), floor)
        dual_change = float(np.linalg.norm(np.subtract(g, p, out=p)))
        p, g = g, p

        step = divergence(p[0], p[1], out=g[0])
        np.multiply(step, tau, out=step)
        np.add(x, step, out=x_new)
        _dct2(x_new, out=spec, work=work)
        project_constraint(spec, meas)
        _idct2(spec, out=x_new, work=work)

        primal_change = float(np.linalg.norm(np.subtract(x_new, x, out=work)))
        primal_norm = max(float(np.linalg.norm(x)), floor)
        # a non-finite iterate makes primal_change non-finite; the norms can
        # also overflow on their own while every entry stays finite
        if not all(map(math.isfinite, (dual_change, dual_norm, primal_change, primal_norm))):
            raise SolverFailure(k)
        np.multiply(x_new, 2.0, out=x_bar)
        np.subtract(x_bar, x, out=x_bar)
        x, x_new = x_new, x

        rel_primal = primal_change / primal_norm
        if k % config.log_every == 0:
            history.append((k, rel_primal, tv(x)))
        if rel_primal < config.tol and dual_change / dual_norm < config.tol:
            iters_used = k
            converged = True
            break

    final_spec = _dct2(x)
    residual = float(np.max(np.abs(final_spec[meas.mask.rows, meas.mask.cols] - meas.values)))
    return ReconstructionResult(
        image=ImageMatrix(x),
        iters_used=iters_used,
        final_tv=tv(x),
        constraint_residual=residual,
        converged=converged,
        history=tuple(history),
    )


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
