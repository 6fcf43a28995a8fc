"""Spans around the public functions of spectralpath, recorded from outside.

`Tracer.install()` replaces every public function of every spectralpath
module with a wrapper, in each module namespace that holds it (so
`equivalence.classify` and `schemes.solve` are wrapped as well as
`spectra.classify` and `linalg.solve`).  A wrapper appends a span
(name, start, end, parent, op id) to a list kept in memory; `write()` saves
the list when the run ends.  Hot leaves are counted instead of spanned.
`uninstall()` puts the original functions back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types
from collections import Counter, defaultdict

# Called thousands of times per operation; a span each would dominate.
COUNTED_ONLY = ("spectra.gap_product", "linalg.as_matrix")

# Floating-point work of one call, from its arguments: (d+1)^2 dense |X|^3
# products for the relation triple counts.
WORK = {
    "schemes.scheme_from_relations": lambda mats: len(mats) ** 2 * 2.0 * len(mats[0]) ** 3,
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.calls = Counter()
        self.work = Counter()
        self.raised = Counter()  # (name, exception type) -> count where it originated
        self.op_id = -1
        self._stack = []
        self._seen_exc = set()
        self._patched = []

    def start_op(self, op_id: int):
        self.op_id = op_id
        self._seen_exc.clear()

    # -------------------------------------------------------------- patching

    def _wrap(self, fn, name):
        spans, stack, calls = self.spans, self._stack, self.calls
        perf = time.perf_counter
        if name in COUNTED_ONLY:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        work = WORK.get(name)

        def spanned(*args, **kwargs):
            calls[name] += 1
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            idx = len(spans)
            span = [name, perf(), 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in self._seen_exc:
                    self._seen_exc.add(id(exc))
                    self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                span[END] = perf()
                stack.pop()

        return spanned

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if key.startswith("spectralpath.") and isinstance(m, types.ModuleType)
        ]
        wrappers = {}
        for fn_home in modules:
            for attr, obj in vars(fn_home).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("spectralpath.")
                ):
                    if obj not in wrappers:
                        short = obj.__module__.split(".", 1)[1]
                        wrappers[obj] = self._wrap(obj, f"{short}.{obj.__name__}")
                    self._patched.append((fn_home, attr, obj))
        for fn_home, attr, obj in self._patched:
            setattr(fn_home, attr, wrappers[obj])

    def uninstall(self):
        for fn_home, attr, obj in self._patched:
            setattr(fn_home, attr, obj)
        self._patched.clear()

    # -------------------------------------------------------------- analysis

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s[NAME]] += s[END] - s[START] - c
        return dict(out)

    def children_of(self, parent_name: str, name: str) -> int:
        return sum(
            1 for s in self.spans if s[NAME] == name and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == parent_name
        )

    def roots(self) -> list:
        return [s for s in self.spans if s[PARENT] < 0]

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
