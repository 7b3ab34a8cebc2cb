"""Spans around calls into the program's layers, recorded from outside it.

`Tracer.install` replaces the public functions and methods listed in
`FUNCTIONS` and `METHODS` with timing wrappers, under every name a `zdmn`
module holds them by (so `simulate.validate_spec` is wrapped as well as
`model.validate_spec`), and `uninstall` puts the originals back.  Each call
records one span: name, start, end, parent span, task and units of work.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

from zdmn import _grid, bounds, model, polar, probability, simulate

# (span name, module, attribute)
FUNCTIONS = (
    ("simulate.bscfb_scheme", simulate, "bscfb_scheme"),
    ("simulate.estimate_error", simulate, "estimate_error"),
    ("simulate.run_trial", simulate, "run_trial"),
    ("simulate.induced_joint", simulate, "induced_joint"),
    ("model.validate_spec", model, "validate_spec"),
    ("probability.cmi", probability, "conditional_mutual_information"),
    ("probability.compose_channels", probability, "compose_channels"),
    ("bounds.grid_hull", bounds, "grid_hull"),
    ("bounds.region_membership", bounds, "region_membership"),
)


def _blocks(_self, arr, *_a, **_k) -> int:
    return int(np.atleast_2d(arr).shape[0])


def _points(_self, _start, count, *_a, **_k) -> int:
    return int(count)


# (span name, class, method, units of work from the arguments or None)
METHODS = (
    ("polar.construct", polar.PolarCode, "__init__", None),
    ("polar.encode", polar.PolarCode, "encode_batch", _blocks),
    ("polar.decode", polar.PolarCode, "decode_batch", _blocks),
    ("bounds.grid_setup", _grid.GridProblem, "__init__", None),
    ("bounds.grid_scan", _grid.GridProblem, "eval_batch", _points),
)


class Tracer:
    """Collects spans as tuples (id, name, start, end, parent, task, units)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.task = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, units=None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                n = units(*args, **kwargs) if units is not None else 1
                spans.append((sid, name, start, end, parent, self.task, n))

        return traced

    def install(self) -> None:
        for name, module, attr in FUNCTIONS:
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig)
            for mod in [m for key, m in sys.modules.items()
                        if key == "zdmn" or key.startswith("zdmn.")]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for name, cls, attr, units in METHODS:
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, orig, units))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"s": total time, "self_s": time minus child spans,
        "calls": number of spans, "units": summed units}."""
        child_time: dict[int, float] = {}
        for _sid, _name, start, end, parent, _task, _n in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for sid, name, start, end, _parent, _task, n in self.spans:
            t = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "units": 0})
            t["s"] += end - start
            t["self_s"] += end - start - child_time.get(sid, 0.0)
            t["calls"] += 1
            t["units"] += n
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,task,units\n")
            for sid, name, start, end, parent, task, n in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{task},{n}\n")


def span_cost_s(calls: int = 20000) -> float:
    """Measured extra time of one traced call over a plain one."""
    def plain(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap("calibrate", plain)
    took = []
    for fn in (plain, traced):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        took.append(time.perf_counter() - start)
    return max(0.0, (took[1] - took[0]) / calls)
