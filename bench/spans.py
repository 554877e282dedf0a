"""In-memory spans and counts for the traced compare.

The tracer replaces functions where their caller looks them up (a module
attribute such as ``opfsample.harness.split``, or a method on a class) with a
wrapper that records a span: name, start, end, parent span and trial id.
Hooks attached to a wrapper add counts and keep references to arguments and
results for the output checks; they run after the span closes, so their time
lands in the parent's self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trial id]
        self.counts: Counter = Counter()
        self.captures: dict[str, list] = defaultdict(list)
        self.trial: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str | None, before=None, after=None) -> None:
        """Replace ``owner.attr``; ``name=None`` counts without opening a span."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if name is None:
                out = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.trial])
                stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, out)
            return out

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name.

        A span's self time is its duration minus that of its direct children.
        Spans nest strictly (one thread, wrappers close in LIFO order), so the
        children's intervals never overlap and their sum is the covered part.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return dict(total), dict(own)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
