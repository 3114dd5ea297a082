"""Spans and counters around the calls into each layer of spectherm.

``install`` replaces the library functions where their callers bound them
(``from .x import y`` puts ``y`` into ``spectherm.cli`` and
``spectherm.thermo``) with wrappers that time each call, plus the CLI's own
``run``. Spans are aggregated in memory per function, and written as JSON
to a side file at interpreter exit, never to stdout, so the report is
unchanged. A span's self time is its time minus the time of the spans it
opened.
"""

from __future__ import annotations

import atexit
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("heattrace", "spectra", "thermo", "specfun")


def _len_arg(args, kwargs):
    return len(args[0]) if args else len(next(iter(kwargs.values())))


# Counters per wrapped function: name -> ((counter, value(args, kwargs, result)), ...)
COUNTERS = {
    "spectra.angular_modes": (("spectra.modes_out", lambda a, k, r: len(r)),),
    "spectra.radial_modes": (("spectra.modes_out", lambda a, k, r: len(r)),),
    "spectra.box_modes": (("spectra.modes_out", lambda a, k, r: len(r)),),
    "spectra.solve_radial_numeric": (
        ("spectra.modes_out", lambda a, k, r: len(r.energies)),
        ("spectra.solver_grid_points", lambda a, k, r: r.grid_points),
    ),
    "spectra.hilbert_dim_min": (("spectra.dim_scan_len", lambda a, k, r: _len_arg(a, k)),),
    "heattrace.heat_trace": (("heattrace.levels_in", lambda a, k, r: _len_arg(a, k)),),
    "heattrace.expand_levels": (
        ("heattrace.levels_in", lambda a, k, r: _len_arg(a, k)),
        ("heattrace.expand_levels_in", lambda a, k, r: _len_arg(a, k)),
        ("heattrace.expanded_len", lambda a, k, r: len(r)),
    ),
    "thermo.qm_partition": (("thermo.levels_in", lambda a, k, r: _len_arg(a, k)),),
    "thermo.quasistatic_partition": (("thermo.levels_in", lambda a, k, r: _len_arg(a, k)),),
    "thermo.integrand": (("specfun.integrand_evals", lambda a, k, r: 1),),
}


class Recorder:
    """Open-span stack, per-function span totals and counters of one process."""

    def __init__(self) -> None:
        self.open: list[float] = []  # time of the child spans of each open span
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: Counter = Counter()

    def wrap(self, layer: str, fn, name: str | None = None):
        name = name or f"{layer}.{fn.__name__}"
        counters = COUNTERS.get(name, ())
        open_spans, counts = self.open, self.counts
        span = self.spans.setdefault(name, [0, 0.0])
        if name == "specfun.integrate":
            integrand = lambda f: self.wrap("thermo", f, "thermo.integrand")  # noqa: E731
        else:
            integrand = None

        def traced(*args, **kwargs):
            if integrand is not None:
                args = (integrand(args[0]),) + args[1:]
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                span[0] += 1
                span[1] += elapsed - children
            for counter, value in counters:
                counts[counter] += value(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        layers: dict[str, dict] = {}
        for name, (calls, self_s) in self.spans.items():
            entry = layers.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
            entry["self_s"] += self_s
            if name != "thermo.integrand":  # a callback, not a call into the layer
                entry["calls"] += calls
        return {"layers": layers, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.summary(), out)


def install(path: str) -> None:
    """Wrap the layer functions bound in spectherm.cli and spectherm.thermo."""
    import spectherm.cli as cli
    import spectherm.thermo as thermo

    recorder = Recorder()
    for module in (cli, thermo):
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", "") or ""
            layer = owner.rsplit(".", 1)[-1]
            if inspect.isfunction(obj) and owner != module.__name__ and layer in LAYERS:
                setattr(module, attr, recorder.wrap(layer, obj))
    cli.run = recorder.wrap("cli", cli.run)
    atexit.register(recorder.dump, path)
