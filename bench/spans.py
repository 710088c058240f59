"""Span recording around figp's public functions, from outside the package.

The tracer replaces every public function of every figp module with a
wrapper that records one span per call: name, start, end, parent and a
few named counts.  Modules import each other's functions by name
(`figp.gp` binds `gram` from `figp.kernels`), so a function is replaced
in every figp namespace that binds it, not only where it is defined.
Spans stay in memory; `aggregate` turns a list of spans into per-layer
numbers and `tail_percentile` implements the tail rule the end-to-end
timings use.
"""

from __future__ import annotations

import functools
import math
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

NUGGET_START = 1e-8  # figp's first automatic nugget, times sigma2

FIGP_MODULES = ("domain", "expressions", "kernels", "gp", "sampling",
                "designs", "emulator", "storage", "cli", "reproduce")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index of the enclosing span, -1 at top level
        self.counts: Dict[str, float] = {}

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": dict(self.counts)}


def _psi_entries(args, kwargs, out):
    return {"psi_entries": int(out.shape[0]) * int(out.shape[1])}


def _gram_counts(args, kwargs, out):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    escalated = (spec.nugget is None and
                 out.nugget > NUGGET_START * spec.base.sigma2 * (1 + 1e-9))
    return {"nugget_escalated": int(escalated)}


def _input_count(args, kwargs, out):
    inputs = args[1] if len(args) > 1 else kwargs["inputs"]
    return {"inputs": len(inputs)}


def _text_bytes(args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


# Named counts read from a call's arguments and result.
COUNTERS: Dict[str, Callable] = {
    "kernels.base_kernel_matrix": _psi_entries,
    "kernels.gram": _gram_counts,
    "gp.predict_many": _input_count,
    "storage.atomic_write_text": _text_bytes,
}


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.cli_dispatch"


class Tracer:
    """Records spans between `install` and `uninstall`."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def wrap(self, name: str, fn: Callable,
             name_of: Optional[Callable] = None) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            span = Span(span_name, perf_counter(),
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.counts["failed"] = 1
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, out))
            return out

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def install(self, package) -> int:
        """Wrap every public figp function in every figp namespace.

        Returns the number of attributes replaced.
        """
        namespaces = [package] + [getattr(package, m) for m in FIGP_MODULES]
        wrappers: Dict[int, Callable] = {}
        for ns in namespaces:
            for attr, fn in list(vars(ns).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith(package.__name__ + ".")):
                    continue
                if getattr(fn, "__wrapped_by_bench__", False):
                    continue
                if id(fn) not in wrappers:
                    module = fn.__module__.rsplit(".", 1)[1]
                    name = f"{module}.{fn.__name__}"
                    name_of = _cli_name if name == "cli.cli_dispatch" else None
                    wrappers[id(fn)] = self.wrap(name, fn, name_of)
                self._patched.append((ns, attr, fn))
                setattr(ns, attr, wrappers[id(fn)])
        return len(self._patched)

    def uninstall(self):
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [max(s.end - s.start - _covered(children.get(i, ())), 0.0)
            for i, s in enumerate(spans)]


def aggregate(spans: List[Span]) -> Dict[str, float]:
    """Per-layer numbers for one pass, keyed `<module>.<function>.<stat>`.

    `busy_s` is inclusive and counts a span only when no enclosing span
    has the same name, so recursion is not counted twice.  `self_s` sums
    self time.  `<module>.self_s` sums the self time of every span of
    the module.  `gp.fit.lml_evals` and `gp.fit.lml_failed` count the
    `gram` calls, and the failed ones, made inside a fit.
    """
    out: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        ancestors = []
        p = s.parent
        while p >= 0:
            ancestors.append(spans[p].name)
            p = spans[p].parent
        out[f"{s.name}.calls"] += 1
        if s.name not in ancestors:
            out[f"{s.name}.busy_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += selfs[i]
        out[f"{s.name.split('.', 1)[0]}.self_s"] += selfs[i]
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] += value
        if s.name == "kernels.gram" and "gp.fit" in ancestors:
            out["gp.fit.lml_evals"] += 1
            out["gp.fit.lml_failed"] += s.counts.get("failed", 0)
    return dict(out)


def tail_percentile(samples) -> Optional[tuple]:
    """Highest whole percentile with at least ten samples ranked beyond it.

    Uses the nearest-rank percentile: the p-th percentile is the sample
    of rank ceil(p/100 * n).  Returns (p, value, n), or None when there
    are ten samples or fewer.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1], n


def median(samples) -> float:
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
