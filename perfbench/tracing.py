"""Per-layer tracing from outside the package.

Wrappers replace thermobit's public functions in every thermobit module
namespace that holds them, because ``cli``, ``sweeps`` and ``markov`` bind
several of them by name at import time. Each wrapper records calls, total
time and self time: its span minus the spans of the wrapped calls it
covers. Spans stay in memory; only the totals are reported.

``counting_calls`` counts the executions of the wrapped functions' own
code with ``sys.settrace``, whichever reference called them, so a call
site that bypasses its wrapper shows as a difference of counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import warnings

# (module, attribute, layer name). Several attributes may share a layer.
TRACED = [
    ("info", "relative_entropy", "info.relative_entropy"),
    ("thermo", "check_szilard_landauer", "thermo.check_szilard_landauer"),
    ("thermo", "log_partition_function", "thermo.log_partition_function"),
    ("thermo", "gibbs_distribution", "thermo.gibbs_distribution"),
    ("bitops", "erase", "bitops.ops"),
    ("bitops", "not_op", "bitops.ops"),
    ("bitops", "switch", "bitops.ops"),
    ("bitops", "randomize", "bitops.ops"),
    ("bitops", "copy_szilard", "bitops.ops"),
    ("bitops", "copy_landauer", "bitops.ops"),
    ("bitops", "randomize_first", "bitops.ops"),
    ("markov", "stationary_distribution", "markov.stationary_distribution"),
    ("markov", "evolve", "markov.evolve"),
    ("markov", "apply_channel", "markov.apply_channel"),
    ("markov", "second_law_audit", "markov.second_law_audit"),
    ("markov", "check_detailed_balance", "markov.check_detailed_balance"),
    ("markov", "data_processing_check", "markov.data_processing_check"),
    ("engine", "isothermal_work", "engine.isothermal_work"),
    ("engine", "convergence_table", "engine.convergence_table"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "format_document", "dsl.format_document"),
    ("sweeps", "identity_sweep", "sweeps.identity_sweep"),
    ("sweeps", "dpi_sweep", "sweeps.dpi_sweep"),
    ("sweeps", "monotonicity_sweep", "sweeps.monotonicity_sweep"),
    ("sweeps", "random_channel", "sweeps.random_channel"),
    ("cli", "main", "cli.main"),
]

# Extra counters: layer -> (counter name, function of the call's arguments).
_ARG_COUNTERS = {
    "markov.evolve": ("steps", lambda args, kwargs: kwargs.get("steps", args[2] if len(args) > 2 else 0)),
    "dsl.parse": ("lines", lambda args, kwargs: len((args[0] if args else kwargs["source"]).splitlines())),
}


class Tracer:
    """Installs wrappers on construction; ``close`` restores the originals."""

    def __init__(self):
        import thermobit
        import thermobit.cli  # noqa: F401  (imports dsl and sweeps too)
        from thermobit import errors, info, markov

        self.stats: dict[str, dict[str, float]] = {}
        self.code_layers: dict[object, str] = {}  # the originals' code -> layer
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        namespaces = [m for name, m in sys.modules.items()
                      if name == "thermobit" or name.startswith("thermobit.")]
        for module_name, attr, layer in TRACED:
            original = getattr(getattr(thermobit, module_name), attr, None)
            if original is None:  # removed by a later change: the layer reads 0
                continue
            self.code_layers[original.__code__] = layer
            wrapped = self._timed(layer, original)
            if layer == "markov.stationary_distribution":
                # () catches nothing, once the solver can no longer fail
                wrapped = self._solver_counts(layer, wrapped,
                                              getattr(errors, "NoStationaryError", ()),
                                              markov.StationaryMultiplicityWarning)
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)
        # Distribution is a class bound by name everywhere; wrapping its
        # validation hook counts every construction without replacing it.
        cls = info.Distribution
        self._undo.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
        self.code_layers[cls.__post_init__.__code__] = "info.Distribution"
        cls.__post_init__ = self._timed("info.Distribution", cls.__post_init__)

    def _layer(self, layer: str) -> dict[str, float]:
        return self.stats.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def _timed(self, layer: str, fn):
        stats = self._layer(layer)
        stack = self._stack
        counter = _ARG_COUNTERS.get(layer)
        if counter is not None:
            stats[counter[0]] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                stats[counter[0]] += counter[1](args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stats["calls"] += 1
                stats["total_s"] += span
                stats["self_s"] += span - children
                if stack:
                    stack[-1] += span

        return wrapper

    def _solver_counts(self, layer: str, fn, error_type, warning_type):
        """Count raised errors and emitted multiplicity warnings, then pass
        both on to the caller unchanged."""
        stats = self._layer(layer)
        stats["errors"] = 0
        stats["multiplicity_warnings"] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            emitted = []
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        return fn(*args, **kwargs)
                    except error_type:
                        stats["errors"] += 1
                        raise
                    finally:
                        emitted = list(caught)
            finally:
                # re-emitted outside the recording context, to the caller's filters
                for w in emitted:
                    if issubclass(w.category, warning_type):
                        stats["multiplicity_warnings"] += 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

        return wrapper

    def close(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()


@contextlib.contextmanager
def counting_calls(code_layers: dict[object, str]):
    """Yield per-layer counts of the calls that run the given code objects."""
    counts = dict.fromkeys(code_layers.values(), 0)

    def trace(frame, event, arg):
        layer = code_layers.get(frame.f_code)
        if layer is not None:
            counts[layer] += 1
        return None  # no line events

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield counts
    finally:
        sys.settrace(previous)
