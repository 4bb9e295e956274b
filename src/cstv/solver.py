"""Total-variation minimization under exact DCT-coefficient constraints.

Solves  minimize TV(X)  subject to  measured coefficients of DCT2(X) fixed
by split Bregman (Goldstein & Osher 2009), an ADMM on d = grad X with
penalty MU and scaled dual b.  -div(grad(.)) is diagonal in the orthonormal
DCT-II basis, with eigenvalues lambda_kl = 4 - 2 cos(pi k / side)
- 2 cos(pi l / side), so the X-update is exact and costs one DCT pair: the
free coefficients of DCT2(div(b - d)) are divided by lambda_kl, and
the measured ones (and DC, where lambda is 0) keep their values.  There is
no step size.  The d-update is over-relaxed (Eckstein & Bertsekas 1992;
Boyd et al. 2011, section 3.4.3): u = b + (1 - RELAX) d + RELAX grad X is
shrunk per pixel, isotropically, by 1/MU to the new d, then b = u - d.
RELAX = 1.4 saves a fifth to a quarter of the iterations on physiological
signals; above it, d oscillates at the edges of a two-block phantom, which
then needs more iterations than with no relaxation.

The solve runs in units of g = TV(X0) / side^2, the mean gradient
magnitude of the zero-filled start X0, and scales its result back by g.
TV is positively homogeneous, so one MU fits every amplitude; X0 is
returned as it is when TV(X0) = 0 or no coefficient is free.  The solve
stops when the primal residual ||grad X - d|| and the dual residual
MU ||div(d - d_prev)|| (Boyd et al. 2011, section 3.3) are at most tol
times max(||grad X||, ||d||) and MU ||div b||; ``converged`` means
exactly that.  The test runs at iteration 1, every CHECK_EVERY-th
iteration and the last, so the solve stops, or fails on a norm that is
not finite, only there; the iterations between take neither the norms
nor div b and div d.  Each test adds a row to ``residuals``: the
iteration, then the four norms (primal, its scale, dual, its scale) in
solve units.  The last row of a converged solve is the test passing, and
the rows vary with amplitude only by round-off.

The iterations run in float32 when tol is at least FLOAT32_MIN_TOL and in
float64 below it (``SolverConfig.dtype``): float32 halves the bytes that
each pass and each DCT product moves.  The start, g and TV stay float64.
The iterations hold the DC coefficient at 0, which changes no gradient, so
an offset takes none of their bits.  After them X is re-pinned in float64,
whatever the dtype: transformed, its kept coefficients, DC among them, set
to the measured values, and transformed back.

No array is made after setup, nor a view outside the DCT pair: the loop
(:func:`_iterate`) binds its steps' calls to views once per solve, as
:func:`grad` and :func:`divergence` bind theirs, and runs them every
iteration.  The x-update's right-hand side is one divergence, of b - d.
A check takes div b and div d in one set of calls over the stacked pair;
the iteration before it takes div d, the check's div d_prev, so that the
dual residual is one difference.  The norms are BLAS dot products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .sampling import MeasurementSet
from .transform import _dct2, _idct2

Array = np.ndarray

MU = 2.0
"""ADMM penalty, in units of the start's mean gradient magnitude."""

RELAX = 1.4
"""Over-relaxation factor of the d-update (1 is plain split Bregman)."""

FLOAT32_MIN_TOL = 1e-4
"""The smallest tol whose iterations run in float32.  At tol 1e-4, on 48
solves of ECG, pressure and respiration records at sides 64 and 256,
float32 matched float64 in iterations to one, in MSE to 5e-4 relative and
in final TV to 1e-6 relative; at 1e-5, 1e-6 and 1e-7 it did not."""

CHECK_EVERY = 5
"""The stopping test runs at iteration 1, at every CHECK_EVERY-th and at max_iters."""

Row = tuple[int, float, float, float, float]
"""A stopping-test row: (iteration, primal, primal scale, dual, dual scale)."""


class SolverFailure(RuntimeError):
    """The start's TV or a stopping norm is not finite; ``residuals`` holds
    the stopping-test rows up to it, the non-finite one last."""

    def __init__(self, iteration: int, residuals: tuple[Row, ...] = ()):
        self.iteration, self.residuals = iteration, residuals
        super().__init__(f"solver diverged at iteration {iteration}")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and relative residual tolerance."""

    max_iters: int = 500
    tol: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.tol < math.inf:  # an infinite tol would pass at iteration 1
            raise ValueError("tol must be finite and > 0")

    @property
    def dtype(self) -> np.dtype:
        """The dtype the iterations run in: float32 when tol is at least
        FLOAT32_MIN_TOL, else float64."""
        return np.dtype(np.float32 if self.tol >= FLOAT32_MIN_TOL else np.float64)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Equality is identity: the generated ``==`` would compare arrays."""

    image: Array
    iters_used: int
    final_tv: float
    converged: bool
    start: Array
    """The zero-filled start: measured coefficients, zeros elsewhere."""
    residuals: tuple[Row, ...]
    """The rows of each iteration that ran the stopping test, its norms in
    units of TV(start) / side^2."""


def _run(steps) -> None:
    """Make each (function, arguments) call of steps in turn."""
    for function, args in steps:
        function(*args)


def _flat(a: Array) -> Array:
    """A view of a with its last two axes as one; its rows must be C-contiguous."""
    if a.strides[-2:] != (a.itemsize * a.shape[-1], a.itemsize):
        raise ValueError("rows must be C-contiguous")
    return a.reshape(*a.shape[:-2], -1)


def _grad_steps(x: Array, gx: Array, gy: Array) -> list:
    """The calls that write grad x to gx and gy, as (function, arguments)
    pairs over views: made once, run by :func:`_run`."""
    flat, gy_flat = _flat(x), _flat(gy)[:-1]
    # one pass over the flattened rows, whose wrapped differences land in the zeroed last column
    return [(np.subtract, (x[1:], x[:-1], gx[:-1])), (gx[-1].fill, (0.0,)),
            (np.subtract, (flat[1:], flat[:-1], gy_flat)), (gy[:, -1].fill, (0.0,))]


def grad(x: Array) -> tuple[Array, Array]:
    """Per-pixel forward differences down rows (gx) and across columns (gy).

    Zero on the trailing boundary: the last row of gx and the last column
    of gy.
    """
    x = np.ascontiguousarray(x)
    gx, gy = np.empty_like(x), np.empty_like(x)
    _run(_grad_steps(x, gx, gy))
    return gx, gy


def _divergence_steps(gx: Array, gy: Array, div: Array) -> list:
    """:func:`_grad_steps` for divergence(gx, gy) into div; each call spans
    the fields that the arrays may stack along leading axes."""
    inner, upper = np.s_[..., 1:, :], np.s_[..., :-1, :]
    flat, gy_flat = _flat(div)[..., 1:], _flat(gy)[..., :-1]
    # one pass over the flattened rows after the first value; column 0, where it wraps, is remade below row 0
    return [(np.subtract, (gx[inner], gx[upper], div[inner])), (np.copyto, (div[..., 0, :], gx[..., 0, :])),
            (np.add, (div, gy, div)), (np.subtract, (flat, gy_flat, flat)),
            (np.subtract, (gx[inner][..., 0], gx[upper][..., 0], div[inner][..., 0])),
            (np.add, (div[inner][..., 0], gy[inner][..., 0], div[inner][..., 0]))]


def divergence(gx: Array, gy: Array) -> Array:
    """Negative adjoint of :func:`grad`:  <grad X, P> == -<X, divergence(P)>
    for fields P that are zero on the trailing boundary.  gy's rows must be
    C-contiguous.  Leading axes of gx and gy stack fields, whose divergences
    the result stacks alike."""
    div = np.empty(gx.shape, gx.dtype)
    _run(_divergence_steps(gx, gy, div))
    return div


def tv(x: Array) -> float:
    """Isotropic total variation: sum of per-pixel gradient magnitudes, inf
    when that sum of finite magnitudes exceeds the float range."""
    # hypot neither underflows nor overflows where the squares would.
    # math.fsum is exactly rounded, which makes the value independent of
    # summation order and therefore bit-comparable against a loop oracle;
    # it reads the magnitudes row by row as Python floats, which is faster
    # than numpy scalars and makes no side^2-long list
    gx, gy = grad(x)
    try:
        return math.fsum(itertools.chain.from_iterable(map(np.ndarray.tolist, np.hypot(gx, gy))))
    except OverflowError:
        return math.inf


def _norm(a: Array) -> float:
    """np.linalg.norm without its checks: one BLAS dot product over the whole buffer."""
    return math.sqrt(np.vdot(a, a))


def _iterate(x: Array, fields: Array, slots: Array, weight: Array, pinned: Array,
             config: SolverConfig) -> tuple[list[Row], bool]:
    """Run the iterations from zeroed buffers in their dtype, with views made
    here, once; return the stopping-test rows and whether the test passed.
    x ends as the last x-update.

    The relaxed step reads d.  Slots 0 and 1 are scratch: the DCT pair's,
    the shrink step's, then b - d's, whose divergence g[0] holds for the
    x-update.  A check takes div b and div d in them, and div(d_prev) from
    slot 2, which the iteration before it writes."""
    (g, b, d), rhs, g1, e, (slot0, slot1, div_prev) = fields, fields[0, 0], fields[0, 1], slots[0:2], slots
    relax, threshold, tol, last = 1.0 - RELAX, 1.0 / MU, config.tol, config.max_iters
    grad_x, div_e, work = _grad_steps(x, g[0], g1), _divergence_steps(*e, rhs), (slot1, slot0)
    div_b_and_d, div_d = _divergence_steps(fields[1:, 0], fields[1:, 1], e), _divergence_steps(*d, div_prev)
    # d = u times the factor, per field: the factor broadcast over the pair takes 1.4x as long
    shrink = [(np.multiply, (u, slot1, d_field)) for u, d_field in zip(b, d)]
    residuals = []
    for iteration in range(1, last + 1):
        _dct2(rhs, out=rhs, work=work)
        np.multiply(rhs, weight, rhs)
        np.add(rhs, pinned, rhs)
        _idct2(rhs, out=x, work=work)

        # b becomes u = (b + (1 - RELAX) d) + RELAX grad x, and d is scratch
        # until it is remade; slot 1 holds |u| per pixel, then the factor
        # that shrinks u to d, and slot 0 the shrunk magnitude
        _run(grad_x)
        np.add(b, np.multiply(d, relax, d), b)
        np.add(b, np.multiply(g, RELAX, d), b)
        np.multiply(b, b, d)
        np.add(d[0], d[1], slot1)
        np.sqrt(slot1, slot1)
        np.maximum(np.subtract(slot1, threshold, slot0), 0.0, out=slot0)
        np.divide(slot0, np.maximum(slot1, threshold, out=slot1), slot1)
        _run(shrink)
        np.subtract(b, d, b)
        if check := iteration == 1 or iteration % CHECK_EVERY == 0 or iteration == last:
            primal_scale = max(_norm(g), _norm(slot0))
            primal = _norm(np.subtract(g, d, g))
        np.subtract(b, d, e)
        _run(div_e)
        if check:
            # the dual residual over MU, div(d) - div(d_prev), goes to g[1]
            _run(div_b_and_d)
            dual, dual_scale = MU * _norm(np.subtract(slot1, div_prev, g1)), MU * _norm(slot0)
            residuals.append((iteration, primal, primal_scale, dual, dual_scale))
            if not all(map(math.isfinite, residuals[-1])):
                raise SolverFailure(iteration, tuple(residuals))
            if primal <= tol * primal_scale and dual <= tol * dual_scale:
                return residuals, True
        if (iteration + 1) % CHECK_EVERY == 0 or iteration + 1 == last:
            _run(div_d)
    return residuals, False


def reconstruct(meas: MeasurementSet, config: SolverConfig | None = None) -> ReconstructionResult:
    """Recover an image from a measurement set by constrained TV minimization.

    Starts from the zero-filled DCT (feasible by construction).  Raises
    :class:`SolverFailure` when TV of the start (as iteration 1) or a norm
    of the stopping test is not finite.
    """
    config = config or SolverConfig()
    side, kept = meas.mask.side, (meas.mask.rows, meas.mask.cols)
    pinned = np.zeros((side, side))
    pinned[kept] = meas.values
    start = _idct2(pinned)
    start_tv = tv(start)
    if not math.isfinite(start_tv):
        raise SolverFailure(1)
    a = 2.0 - 2.0 * np.cos(np.pi * np.arange(side) / side)
    # 1 / lambda_kl on the free coefficients; 0 at DC, where lambda is 0
    weight = np.add.outer(a, a)
    np.divide(1.0, weight, out=weight, where=weight > 0.0)
    weight[kept] = 0.0
    # a start without variation is optimal, and one without a free
    # coefficient cannot move: it is returned as it is, and no iteration runs
    if start_tv == 0.0 or not weight.any():
        return ReconstructionResult(image=start.copy(), iters_used=0, final_tv=start_tv, converged=True,
                                    start=start, residuals=())
    scale = start_tv / (side * side) or 1.0
    dtype = config.dtype
    weight = weight.astype(dtype, copy=False)
    # in solve units, with DC held at 0 until the re-pin
    pinned = np.divide(pinned, scale, out=pinned).astype(dtype, copy=False)
    pinned[0, 0] = 0.0
    x, fields, slots = (np.zeros(shape, dtype) for shape in ((side, side), (3, 2, side, side), (3, side, side)))
    residuals, converged = _iterate(x, fields, slots, weight, pinned, config)
    del fields, slots  # the loop's 9 side^2 buffers, freed before the re-pin and tv make theirs
    # the re-pin, in float64 and the input's units
    image = np.multiply(x, scale, dtype=np.float64)
    _dct2(image, out=image)
    image[kept] = meas.values
    _idct2(image, out=image)
    return ReconstructionResult(image=image, iters_used=residuals[-1][0], final_tv=tv(image), converged=converged,
                                start=start, residuals=tuple(residuals))


def load_solver_config(path: str | Path) -> SolverConfig:
    """Read a config from ``key = value`` lines; ``#`` starts a comment.

    The recognized keys are the fields of :class:`SolverConfig`.
    """
    # every field has a default (SolverConfig() is the default config), and
    # the default's type is the field's type; an unknown key keeps its text
    casts = {f.name: type(f.default) for f in fields(SolverConfig)}
    entries = {}
    for raw in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = map(str.strip, line.partition("="))
        if not sep:
            raise ValueError(f"{path}: cannot parse config line {raw!r}")
        # the last value would win silently, and a second tol may change the dtype
        if key in entries:
            raise ValueError(f"{path}: config key {key} appears twice")
        try:
            entries[key] = casts.get(key, str)(value)
        except ValueError:
            raise ValueError(f"{path}: cannot parse {key} = {value!r}") from None
    unknown = set(entries) - set(casts)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return SolverConfig(**entries)
