"""Run the cstv command line with spans recorded at module boundaries.

Usage::

    python3 bench/traced_cli.py SPANS.npz <cstv arguments...>

The runner imports ``cstv.cli`` (timed as the ``cli.import`` span), replaces
the names one cstv module imports from another with wrappers that record a
span per call, and then calls ``cstv.cli.main(argv)`` (the ``cli.main``
span).  Spans stay in memory and are written to SPANS.npz when main
returns.  A wrapped name that does not exist is listed as absent instead
of failing the run.

Span i has ``name_id[i]`` (an index into the ``names`` list in ``meta``),
``start[i]`` and ``end[i]`` from ``time.perf_counter`` in seconds, and
``parent[i]``, the index of the enclosing span or -1.  ``meta`` is a JSON
string with ``names``, ``absent`` and ``attrs``: counts taken at the
boundary, keyed by span index, for the spans that have any.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Names looked up at call time through these modules' globals: the ones
# cstv.cli imports from cstv.signal and cstv.sweep, the ones cstv.sweep
# imports from the sampling, solver and transform modules (plus its own
# per-row recover_signal), and the transform's interface to the solver.
WRAPPED = {
    "cstv.cli": (
        "load_signal_csv",
        "save_signal_csv",
        "recover_signal",
        "run_sweep",
        "write_report_csv",
        "write_report_sidecar",
    ),
    "cstv.sweep": ("draw_mask", "measure", "reconstruct", "dct2_forward", "recover_signal"),
    "cstv.solver": ("_dct2", "_idct2"),
}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _attrs(short_name, args, result):
    """Counts recorded at the boundary, computed from arguments and result."""
    if short_name == "load_signal_csv":
        return {"bytes": _file_bytes(args[0])}
    if short_name == "save_signal_csv":
        return {"bytes": _file_bytes(args[1])}
    if short_name == "measure":
        return {"kept": int(len(getattr(result, "values", ())))}
    if short_name == "reconstruct":
        mask = getattr(args[0], "mask", None)
        return {
            "iters": int(getattr(result, "iters_used", 0)),
            "converged": bool(getattr(result, "converged", False)),
            "side": int(getattr(mask, "side", 0)),
        }
    return None


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self.names.setdefault(name, len(self.names)))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, attrs=None) -> None:
        self.end[index] = time.perf_counter()
        if attrs:
            self.attrs[index] = attrs
        self._stack.pop()

    def wrap(self, module_name: str, short_name: str, fn):
        name = f"{module_name}.{short_name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, {"error": type(exc).__name__})
                raise
            self.close(index, _attrs(short_name, args, result))
            return result

        return traced

    def write(self, path: str, absent: list[str]) -> None:
        import numpy as np

        meta = {"names": list(self.names), "absent": absent, "attrs": self.attrs}
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name_id=np.array(self.name_id, dtype=np.int32),
                start=np.array(self.start, dtype=np.float64),
                end=np.array(self.end, dtype=np.float64),
                parent=np.array(self.parent, dtype=np.int64),
                meta=np.array(json.dumps(meta)),
            )


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPPED that exists; return the absent ones."""
    absent = []
    for module_name, names in WRAPPED.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.extend(f"{module_name}.{n}" for n in names)
            continue
        for short_name in names:
            fn = getattr(module, short_name, None)
            if not callable(fn):
                absent.append(f"{module_name}.{short_name}")
                continue
            setattr(module, short_name, tracer.wrap(module_name, short_name, fn))
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 1:
        print("usage: traced_cli.py SPANS.npz <cstv arguments...>", file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.open("cli.import")
    import cstv.cli

    tracer.close(index)
    absent = install(tracer)
    index = tracer.open("cli.main")
    try:
        code = cstv.cli.main(cli_args)
    finally:
        tracer.close(index)
        tracer.write(spans_path, absent)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
