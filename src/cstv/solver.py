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


def grad(x: Array) -> tuple[Array, Array]:
    """Per-pixel forward differences down rows (gx) and across columns (gy).

    Zero on the trailing boundary: the last row of gx and the last column
    of gy.
    """
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gx[:-1, :] = x[1:, :] - x[:-1, :]
    gy[:, :-1] = x[:, 1:] - x[:, :-1]
    return gx, gy


def divergence(gx: Array, gy: Array) -> Array:
    """Negative adjoint of :func:`grad`:  <grad X, P> == -<X, divergence(P)>
    for fields P that are zero on the trailing boundary."""
    div = gx.copy()
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
    spec0 = np.zeros((side, side), dtype=np.float64)
    project_constraint(spec0, meas)
    x = _idct2(spec0)
    x_bar = x.copy()
    px = np.zeros_like(x)
    py = np.zeros_like(x)

    sigma = config.step_dual
    tau = config.step_primal
    floor = 1e-30
    history: list[tuple[int, float, float]] = []
    iters_used = config.max_iters
    converged = False

    for k in range(1, config.max_iters + 1):
        gx, gy = grad(x_bar)
        px_new = px + sigma * gx
        py_new = py + sigma * gy
        mag = np.sqrt(px_new * px_new + py_new * py_new)
        np.maximum(mag, 1.0, out=mag)
        px_new /= mag
        py_new /= mag
        dual_change = float(np.sqrt(np.sum((px_new - px) ** 2 + (py_new - py) ** 2)))
        dual_norm = max(float(np.sqrt(np.sum(px * px + py * py))), floor)
        px, py = px_new, py_new

        x_new = x + tau * divergence(px, py)
        spec = _dct2(x_new)
        project_constraint(spec, meas)
        x_new = _idct2(spec)

        primal_change = float(np.linalg.norm(x_new - x))
        primal_norm = max(float(np.linalg.norm(x)), floor)
        # a non-finite iterate makes primal_change non-finite; the norms can
        # also overflow on their own while every entry stays finite
        if not all(map(math.isfinite, (dual_change, dual_norm, primal_change, primal_norm))):
            raise SolverFailure(k)
        x_bar = 2.0 * x_new - x
        x = x_new

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
