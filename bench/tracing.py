"""Spans and counts recorded around calls into the program, from outside it.

A traced run wraps each public call the benchmark makes in a span (name,
start, end, parent span, operation id) and records counts at the same
boundaries. Calls that happen inside the program and are too many for one
span each (``canonical_info``, ``canonical_table``, ``tables_equal``) are
counted by wrapping the names under which ``fglift.transfer`` and
``fglift.colours`` bind them; their time is charged to a ``tables`` leaf
and subtracted from the enclosing span's self time. Spans stay in memory
and are written as JSON when the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

# Per-layer metrics: name -> (unit, better). Time metrics end in "_s" and
# are read from the span (or leaf) named by the metric without "_s".
PER_LAYER = {
    "synth.generate_s": ("s", "lower"),
    "synth.rvs": ("count", "lower"),
    "synth.factors": ("count", "lower"),
    "synth.unknowns": ("count", "lower"),
    "modelio.parse_s": ("s", "lower"),
    "modelio.serialize_s": ("s", "lower"),
    "modelio.bytes": ("B", "lower"),
    "model.validate_s": ("s", "lower"),
    "transfer.candidate_sets_s": ("s", "lower"),
    "transfer.select_s": ("s", "lower"),
    "transfer.apply_s": ("s", "lower"),
    "transfer.candidates": ("count", "lower"),
    "transfer.classes": ("count", "lower"),
    "transfer.resolved": ("count", "higher"),
    "tables.canonical_calls": ("count", "lower"),
    "tables.equal_calls": ("count", "lower"),
    "tables.s": ("s", "lower"),
    "colours.initial_s": ("s", "lower"),
    "colours.refine_s": ("s", "lower"),
    "colours.grouping_s": ("s", "lower"),
    "colours.rounds": ("count", "lower"),
    "colours.rv_classes": ("count", "lower"),
    "colours.factor_classes": ("count", "lower"),
    "inference.ve_s": ("s", "lower"),
    "inference.ve_reverse_id_s": ("s", "lower"),
    "inference.eliminated": ("count", "lower"),
    "inference.failed": ("count", "lower"),
    "cli.lift_s": ("s", "lower"),
    "trace.op_p50_s": ("s", "lower"),
}


class Tracer:
    """In-memory spans, per-operation self times and per-operation counts."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._open: list[int] = []
        self._child: list[float] = []  # time covered by children, per open span
        self.op = "none"
        self.phase: dict[str, tuple[str, int]] = {}  # op id -> (phase, round)
        self.self_time: dict[tuple[str, str], float] = {}
        self.counts: dict[tuple[str, str], int] = {}

    def begin_op(self, op: str, phase: str, round_no: int = 0) -> None:
        self.op = op
        self.phase[op] = (phase, round_no)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start - self._t0, None, self._open[-1] if self._open else None, self.op])
        self._open.append(index)
        self._child.append(0.0)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            covered = self._child.pop()
            self.spans[index][2] = end - self._t0
            self._charge(name, (end - start) - covered)
            if self._child:
                self._child[-1] += end - start

    def leaf(self, name: str, seconds: float) -> None:
        self._charge(name, seconds)
        if self._child:
            self._child[-1] += seconds

    def count(self, name: str, n: int = 1) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _charge(self, name: str, seconds: float) -> None:
        key = (self.op, name)
        self.self_time[key] = self.self_time.get(key, 0.0) + seconds

    # -- summaries ---------------------------------------------------------

    def _ops(self, phase: str, round_no: int | None = None) -> list[str]:
        return [
            op
            for op, (ph, rn) in self.phase.items()
            if ph == phase and (round_no is None or rn == round_no)
        ]

    def layer_time(self, name: str) -> float:
        """Median over operations of the self time spent in ``name``.

        Timed operations are used when the layer runs in them, set-up
        operations otherwise; 0.0 when the layer never ran.
        """
        for phase in ("op", "setup", "cli"):
            values = [
                self.self_time[(op, name)]
                for op in self._ops(phase)
                if (op, name) in self.self_time
            ]
            if values:
                return median(values)
        return 0.0

    def round_counts(self, name: str) -> int:
        """Count per round of timed operations, else per set-up; 0 if never counted.

        Raises RuntimeError when two rounds of the same operations disagree.
        """
        rounds = sorted({rn for ph, rn in self.phase.values() if ph == "op"})
        per_round = [
            sum(self.counts.get((op, name), 0) for op in self._ops("op", rn)) for rn in rounds
        ]
        if any(v != per_round[0] for v in per_round):
            raise RuntimeError(f"count {name} differs between rounds: {per_round}")
        if per_round and per_round[0]:
            return per_round[0]
        return sum(self.counts.get((op, name), 0) for op in self._ops("setup"))

    def metrics(self, traced_op_p50: float) -> dict[str, dict]:
        out = {}
        for name, (unit, _) in PER_LAYER.items():
            if name == "trace.op_p50_s":
                value: float = traced_op_p50
            elif unit == "s":
                value = self.layer_time(name[: -len("_s")] if name != "tables.s" else "tables")
            else:
                value = self.round_counts(name)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
        counts = [{"op": op, "name": n, "value": v} for (op, n), v in self.counts.items()]
        with open(path, "w") as fh:
            json.dump({**header, "spans": spans, "counts": counts}, fh)


class Calls:
    """Calls into the program: timed in total, and traced when a tracer is set."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def __call__(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span(name):
                return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start

    def count(self, name: str, n: int = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, n)

    @contextmanager
    def span(self, name: str):
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name):
                yield


@contextmanager
def wrapped_bindings(tracer: Tracer):
    """Count table calls from ``transfer`` and ``colours``, and colour-passing rounds.

    The program's modules are restored on exit.
    """
    import fglift.colours as colours
    import fglift.transfer as transfer

    saved = []

    def wrap(module, attr: str, counter: str, timed: bool) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(counter)
            if not timed:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf("tables", time.perf_counter() - start)

        saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    try:
        for module in (transfer, colours):
            wrap(module, "canonical_info", "tables.canonical_calls", True)
            wrap(module, "canonical_table", "tables.canonical_calls", True)
            wrap(module, "tables_equal", "tables.equal_calls", True)
        wrap(colours, "colour_passing_step", "colours.rounds", False)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
