"""Per-layer spans for the traced run, recorded from outside the library.

:func:`install` wraps the public functions of each walshdiv layer.  A module
that did ``from .walsh import fwht`` holds its own binding, so every module
global bound to the original function is rebound, not just the defining one;
methods are wrapped on their class.  For every wrapped label the recorder
keeps

- ``<label>.s``: inclusive wall time, counted at the outermost call only, so
  recursion (``bounds.exp_enclosure``) is not counted twice;
- ``<label>.self_s``: wall time minus the time of wrapped calls nested in it;
- ``<label>.calls``: the number of calls;

plus the counters the hooks below add.  The ``ops`` and ``bytes_computed``
counters are computed from array sizes, not measured.  Layer labels use
``kernels`` for ``walshdiv._kernels`` because metric names start with a letter.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict


class Recorder:
    """Aggregated span times and counters of one process."""

    def __init__(self) -> None:
        self.values: defaultdict[str, float] = defaultdict(int)
        self.peaks: dict[str, int] = {}
        self._child_time: list[float] = []  # per open span: time of nested spans
        self._open: Counter[str] = Counter()  # open spans per label

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def span(self, label: str, fn, hook=None):
        """``fn`` wrapped so that each call records a span under ``label``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open[label] += 1
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self._open[label] -= 1
                if not self._open[label]:
                    self.values[label + ".s"] += elapsed
                self.values[label + ".self_s"] += elapsed - nested
                self.values[label + ".calls"] += 1
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        return {**self.values, **self.peaks}


# -- hooks: counters read from arguments and results ---------------------------


def _fwht_dtype(rec: Recorder, fn, args, kwargs, result) -> None:
    if result.numerators.dtype == object:
        rec.add("walsh.fwht.object_dtype_calls", 1)


def _hadamard_work(rec: Recorder, fn, args, kwargs, result) -> None:
    a = args[0]
    stages = a.shape[0].bit_length() - 1
    rec.add("kernels.hadamard_inplace.ops", a.shape[0] * stages)  # one add or sub per entry per stage
    rec.add("kernels.hadamard_inplace.bytes_computed", 2 * a.nbytes * stages)  # read + write


def _cell_scan_work(rec: Recorder, fn, args, kwargs, result) -> None:
    rec.add("kernels.cell_scan.cells", result[0].size)
    rec.add("kernels.cell_scan.bytes_computed", sum(arr.nbytes for arr in result))


def _terms(rec: Recorder, fn, args, kwargs, result) -> None:
    rec.add("fourier.terms", inspect.signature(fn).bind(*args, **kwargs).arguments["N"])


def _probe_decide_less(rec: Recorder, fn):
    """``decide_less`` with its left operand watched for precision escalation."""

    @functools.wraps(fn)
    def probing(lhs, rhs, *args, **kwargs):
        precisions = []

        def watched(prec):
            precisions.append(prec)
            return lhs(prec)

        try:
            return fn(watched, rhs, *args, **kwargs)
        finally:
            rec.add("bounds.decide_less.refinements", max(len(precisions) - 1, 0))
            rec.peak("bounds.decide_less.max_prec", max(precisions, default=0))

    return probing


# (label, module, attribute, hook)
TARGETS = (
    ("cli.main", "walshdiv.cli", "main", None),
    ("counterexample.build_fn", "walshdiv.counterexample", "build_fn", None),
    ("counterexample.partial_sum_series", "walshdiv.counterexample", "partial_sum_series", None),
    ("counterexample.verify_lemma1", "walshdiv.counterexample", "verify_lemma1", None),
    ("counterexample.verify_lemma2", "walshdiv.counterexample", "verify_lemma2", None),
    ("counterexample.measure_En_range", "walshdiv.counterexample", "measure_En_range", None),
    ("atoms.AtomSum.render", "walshdiv.atoms", "AtomSum.render", None),
    ("atoms.AtomSum.partial_sum", "walshdiv.atoms", "AtomSum.partial_sum", None),
    ("walsh.fwht", "walshdiv.walsh", "fwht", _fwht_dtype),
    ("kernels.hadamard_inplace", "walshdiv._kernels", "hadamard_inplace", _hadamard_work),
    ("kernels.bit_reversal_table", "walshdiv._kernels", "bit_reversal_table", None),
    ("kernels.walsh_sign_row", "walshdiv._kernels", "walsh_sign_row", None),
    ("kernels.cell_scan", "walshdiv._kernels", "cell_scan", _cell_scan_work),
    ("fourier.strong_mean", "walshdiv.fourier", "strong_mean", _terms),
    ("fourier.strong_mean_bounds", "walshdiv.fourier", "strong_mean_bounds", _terms),
    ("fourier.exceed_density", "walshdiv.fourier", "exceed_density", _terms),
    ("fourier.PhiSpec.enclosure", "walshdiv.fourier", "PhiSpec.enclosure", None),
    ("fourier.PhiSpec.value_mpf", "walshdiv.fourier", "PhiSpec.value_mpf", None),
    ("bounds.exp_enclosure", "walshdiv.bounds", "exp_enclosure", None),
    ("bounds.decide_less", "walshdiv.bounds", "decide_less", None),
)

AROUND = {"bounds.decide_less": _probe_decide_less}


def install(rec: Recorder) -> list[str]:
    """Wrap every target at every binding site; return the labels not found.

    Call after ``walshdiv.cli`` is imported, so that every module holding a
    binding is loaded.
    """
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "walshdiv"]
    missing = []
    for label, module_name, attribute, hook in TARGETS:
        owner = sys.modules.get(module_name)
        class_name, _, name = attribute.rpartition(".")
        if class_name:
            owner = getattr(owner, class_name, None)
        original = getattr(owner, name, None)
        if original is None:
            missing.append(label)
            continue
        inner = AROUND[label](rec, original) if label in AROUND else original
        wrapped = rec.span(label, inner, hook)
        if class_name:
            setattr(owner, name, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing
