"""In-memory span tracer used by the benchmark's traced runs.

A span records name, start, end, parent span and the run id. Spans stay in
memory and are written out once, when the traced process ends. Wrappers are
installed on the attribute a caller looks the function up through: the
rankforge modules use `from .x import f`, so a wrapper on the defining
module alone would time nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path

ROOT = "run"


class Tracer:
    """Collects spans and counters for one traced run of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # patch targets that were not found

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        """`fn` wrapped so that each call records one span."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """The root span, around the timed section of the traced process."""
        idx = len(self.spans)
        self.spans.append([self._name_id(ROOT), time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def patch(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` by `make(original)` until `restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        # every span of one file belongs to the same run, so the run id is
        # stored once rather than on each span
        doc = {"run_id": self.run_id, "names": self.names, "spans": self.spans,
               "counters": dict(self.counters), "missing": self.missing}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def summarize(names: list[str], spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children. Spans of one thread nest, so the children cover disjoint parts
    of their parent and the self times of all spans add up to the duration
    of the root spans. The root's self time is the `other` remainder.
    """
    self_s = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out: dict[str, dict] = {}
    for (nid, start, end, _), own in zip(spans, self_s):
        row = out.setdefault(names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out
