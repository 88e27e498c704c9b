"""In-memory span tracer for the benchmark's traced run.

The program is timed from outside: the benchmark wraps the callables it hands
to the package (warps, sections, trajectories) and the module references the
package calls across layer boundaries (for example the ``solve_ivp`` that
``geodesic_flow`` calls).  Nothing under ``src/`` is edited.

Two kinds of records keep memory small while the accounting stays exact:

* a *span* (name, start, end, parent, op id, thread) for each coarse call:
  an op, an ``integrate``, a stepper leg, an experiments case, a CLI run;
* a *leaf* aggregate (count, total seconds) per leaf name, stored on the
  enclosing span, for the fine-grained calls that run thousands of times per
  op (warp evaluations, section metric calls, dense trajectory queries).

Leaves have no traced children: a leaf entered while another leaf runs on the
same thread is not recorded (a section's ``metric`` calling its own
``conformal`` counts as one call).  A span's self time is its duration minus
the union of its child spans' intervals minus its leaf totals.
"""
from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

perf = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread",
                 "leaves", "attrs")

    def __init__(self, sid, name, parent, op, thread):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = self.end = 0.0
        self.leaves: Dict[str, list] = {}
        self.attrs: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.sid, self.name, self.start, self.end,
                None if self.parent is None else self.parent.sid,
                self.op, self.thread, self.leaves, self.attrs]


class Tracer:
    """Collects spans for one process.  Spans opened on a worker thread with
    nothing open on that thread take the innermost open span of the thread
    that runs the ops as their parent, so ``delta_sweep``'s pool threads
    nest under the sweep that started them."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._local = threading.local()
        self._op_stack: List[Span] = []
        self._next = 0
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, parent, self.op, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span):
        self._stack().pop()
        self.spans.append(span)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int) -> Span:
        self.op = op_id
        self._local.stack = self._op_stack
        span = self._open("bench.op")
        span.start = perf()
        return span

    def end_op(self, span: Span):
        span.end = perf()
        self._close(span)
        self.op = None

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable[[Span, object], None]] = None):
        """Wrap ``fn`` so that each call records a span named ``name``."""

        def traced(*args, **kwargs):
            sp = self._open(name)
            sp.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = perf()
                self._close(sp)
            if on_result is not None:
                on_result(sp, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn: Callable):
        """Wrap ``fn`` so that each call adds to the enclosing span's
        ``name`` aggregate."""
        local = self._local

        def traced(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            local.in_leaf = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                local.in_leaf = False
                if stack:
                    rec = stack[-1].leaves.get(name)
                    if rec is None:
                        stack[-1].leaves[name] = [1, dt]
                    else:
                        rec[0] += 1
                        rec[1] += dt

        traced.__wrapped__ = fn
        return traced


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus the union of its child
    spans' intervals minus its leaf totals (never below zero)."""
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent.sid, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        hi = sp.start
        for c in sorted(children.get(sp.sid, ()), key=lambda s: s.start):
            lo = max(c.start, hi)
            end = min(c.end, sp.end)
            if end > lo:
                covered += end - lo
                hi = end
        leaf_total = sum(rec[1] for rec in sp.leaves.values())
        out[sp.sid] = max(0.0, sp.duration - covered - leaf_total)
    return out
