"""Span recorder for the traced benchmark run.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; spans are kept
in memory and written out once, when the run ends. Spans are recorded only
from the benchmark's own code: :meth:`Tracer.instrumented` temporarily rebinds the
public functions of the package modules to recording wrappers, so a call
that one module makes into another (``synthesize`` into ``decompose``,
``steady_state`` into ``solve_lyapunov``) gets its own span without any
change to the program. A layer's self time is its span's duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

#: ``(span name, module, function)`` for every public function the traced
#: pass times. A function that a later version of the program no longer has
#: is skipped, and its layer then reads zero.
TARGETS = (
    ("gaussian.factor_covariance", "gsynth.gaussian", "factor_covariance"),
    ("gaussian.graph_to_covariance", "gsynth.gaussian", "graph_to_covariance"),
    ("structure.decompose", "gsynth.structure", "decompose"),
    ("structure.find_cyclic_vector", "gsynth.structure", "find_cyclic_vector"),
    ("structure.non_derogatory", "gsynth.structure", "non_derogatory"),
    ("structure.is_controllable", "gsynth.structure", "is_controllable"),
    ("synthesis.build_R", "gsynth.synthesis", "build_R"),
    ("synthesis.build_Gamma", "gsynth.synthesis", "build_Gamma"),
    ("synthesis.assemble_realization", "gsynth.synthesis", "assemble_realization"),
    ("synthesis.synthesize", "gsynth.synthesis", "synthesize"),
    ("synthesis.verify_constraints", "gsynth.synthesis", "verify_constraints"),
    ("numerics.solve_lyapunov", "gsynth.numerics", "solve_lyapunov"),
    ("numerics.is_hurwitz", "gsynth.numerics", "is_hurwitz"),
    ("numerics.expm", "gsynth.numerics", "expm"),
    ("dynamics.build_moment_system", "gsynth.dynamics", "build_moment_system"),
    ("dynamics.steady_state", "gsynth.dynamics", "steady_state"),
    ("dynamics.evolve", "gsynth.dynamics", "evolve"),
    ("dynamics.verify_generation", "gsynth.dynamics", "verify_generation"),
    ("noise.augment", "gsynth.noise", "augment"),
    ("noise.robustness_report", "gsynth.noise", "robustness_report"),
    ("fileio.load", "gsynth.fileio", "load_state_file"),
    ("fileio.load", "gsynth.fileio", "load_realization"),
    ("fileio.save", "gsynth.fileio", "save_realization"),
    ("fileio.save", "gsynth.fileio", "save_covariance"),
    ("fileio.save", "gsynth.fileio", "save_graph"),
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id = -1
        self._bindings = None

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter_ns(), 0, parent, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _end(self, record: list) -> None:
        record[2] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        record = self._begin(name)
        try:
            yield record
        finally:
            self._end(record)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished span measured elsewhere, such as a child process."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start_ns, end_ns, parent, self.op_id])

    def wrap(self, name: str, fn):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        return traced

    @contextmanager
    def instrumented(self):
        """Rebind every target function, wherever a package module holds it, to a wrapper."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for module, key, _, wrapper in self._bindings:
            setattr(module, key, wrapper)
        try:
            yield
        finally:
            for module, key, original, _ in self._bindings:
                setattr(module, key, original)

    def _find_bindings(self) -> list[tuple]:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gsynth" or name.startswith("gsynth."))]
        bindings = []
        for span_name, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original)
            for module in modules:
                bindings += [(module, key, original, wrapper)
                             for key, value in vars(module).items() if value is original]
        return bindings

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            totals[name] += end - start - covered
        return totals

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                       "spans": self.spans}, fh)


