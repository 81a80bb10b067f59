"""Spans and counters recorded around calls into the alttamari modules.

A :class:`Tracer` replaces selected library functions by wrappers. Each
function is replaced at every module attribute bound to it, because that
attribute is what callers resolve: ``from .paths import delta_rotate``
binds a second name in ``alttamari.order``, and order's cover loop calls
that one. Methods are replaced on their class. The library source is not
touched, and :meth:`Tracer.uninstall` puts every original object back.

A wrapper records one span (name, start, end, parent span, op) and updates
the counters that belong to its function. Spans are kept in flat lists in
memory and are summarised, or written out, once the run has ended.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

NO_PARENT = -1

# (defining module, attribute) of every function the traced run wraps. The
# span name is the module's last component and the attribute's last one:
# "paths.delta_rotate", "order.census".
TARGETS = (
    ("alttamari.paths", "enumerate_nu_paths"),
    ("alttamari.paths", "delta_rotate"),
    ("alttamari.paths", "valleys"),
    ("alttamari.order", "build_lattice"),
    ("alttamari.order", "FiniteLattice.census"),
    ("alttamari.order", "FiniteLattice.check_lattice_laws"),
    ("alttamari.trees", "build_region"),
    ("alttamari.trees", "right_flushing"),
    ("alttamari.vectors", "reduced_column_vector"),
    ("alttamari.vectors", "reduced_column_order"),
    ("alttamari.vectors", "reduced_down_flushing"),
    ("alttamari.transport", "verify_theorem"),
    ("alttamari.transport", "horizontal_flushing"),
    ("alttamari.transport", "vertical_flushing"),
    ("alttamari.oracle", "closure_from_covers"),
    ("alttamari.oracle", "oracle_census"),
    ("alttamari.cli", "main"),
)


def span_name(module: str, attribute: str) -> str:
    return f"{module.rpartition('.')[2]}.{attribute.rpartition('.')[2]}"


@dataclass
class SpanLog:
    """Spans in flat parallel lists; span ids are list indices."""

    names: list[str] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)

    def add(self, name: str, start: int, end: int, parent: int = NO_PARENT, op: int = 0) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.names)

    def write_tsv(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.names)):
                handle.write(
                    f"{self.ops[sid]}\t{sid}\t{self.parents[sid]}\t{self.names[sid]}"
                    f"\t{self.starts[sid]}\t{self.ends[sid]}\n"
                )


def self_times(log: SpanLog) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for sid, parent in enumerate(log.parents):
        if parent != NO_PARENT:
            children[parent].append(sid)
    result = []
    for sid in range(len(log)):
        start, end = log.starts[sid], log.ends[sid]
        covered = 0
        reach = start
        for child in sorted(children.get(sid, ()), key=log.starts.__getitem__):
            lo = max(log.starts[child], reach)
            hi = min(log.ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


@dataclass(frozen=True)
class LayerTotals:
    calls: int
    busy_ns: int  # wall time inside the function, nested calls counted once
    self_ns: int  # wall time inside the function but outside every child span


def summarize(log: SpanLog) -> dict[str, LayerTotals]:
    selfs = self_times(log)
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    for sid, name in enumerate(log.names):
        calls[name] += 1
        own[name] += selfs[sid]
        parent = log.parents[sid]
        while parent != NO_PARENT and log.names[parent] != name:
            parent = log.parents[parent]
        if parent == NO_PARENT:
            busy[name] += log.ends[sid] - log.starts[sid]
    return {name: LayerTotals(calls[name], busy[name], own[name]) for name in calls}


def closure_bytes(lattice) -> int:
    """Bytes held by a lattice's ``up``/``down`` closure rows.

    Only the instance dictionary is read, so a closure that is computed
    lazily and not yet needed counts as zero and is not computed here.
    """
    held = vars(lattice)
    total = 0
    for name in ("up", "down"):
        rows = held.get(name)
        if rows is not None:
            total += sys.getsizeof(rows) + sum(sys.getsizeof(row) for row in rows)
    return total


class Tracer:
    """Installs the wrappers, owns the span log and the counters."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counts: Counter = Counter()
        self.regions: set = set()
        self.op = 0
        self._stack: list[int] = []
        self._built: list = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- hooks run by the wrappers ---------------------------------------

    def _after_build(self, lattice) -> None:
        self._built.append(lattice)

    def _before_column_order(self, args) -> None:
        region = args[0]
        self.regions.add((region.nu.word, tuple(region.delta.entries)))

    def _after_verify(self, report) -> None:
        self.counts["transport.verify_theorem.deltas_checked"] += report.deltas_checked

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        """Read closure sizes of the lattices built by the op, then let them go."""
        for lattice in self._built:
            self.counts["order.closure_bytes"] += closure_bytes(lattice)
        self._built.clear()

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        log, stack, clock = self.log, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = log.add(name, 0, 0, stack[-1] if stack else NO_PARENT, self.op)
            stack.append(sid)
            log.starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the library no longer has is listed in ``missing``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "order.build_lattice": {"after": self._after_build},
            "vectors.reduced_column_order": {"before": self._before_column_order},
            "transport.verify_theorem": {"after": self._after_verify},
        }
        for module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "alttamari"]
        self.missing = []
        for module_name, attribute in TARGETS:
            name = span_name(module_name, attribute)
            owner_name, _, leaf = attribute.rpartition(".")
            owner = sys.modules[module_name]
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._wrap(name, original, **hooks.get(name, {}))
            if owner_name:
                self._patch(owner, leaf, wrapper)
                continue
            for candidate in modules:
                if vars(candidate).get(leaf) is original:
                    self._patch(candidate, leaf, wrapper)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
