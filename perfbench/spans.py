"""In-memory span tracing around the public functions of each `cqap` layer.

The tracer installs a wrapper where the caller looks a name up: a module
attribute (`cqap.tradeoffs.solve_joint_lp`, which `tradeoffs` calls by its
own global name) or a class attribute (`JointSystem.log_size_bound`).  Each
call becomes one span record

    {"id", "parent", "name", "request", "start", "end", "error", "nested"}

with `perf_counter` times in seconds, the id of the enclosing span (or
None), the request (query) it ran for, the exception class name when it
raised, and `nested` when a span of the same name is already open, so that
recursive calls are not counted twice in the totals.  Per-layer counts are
kept per request next to the spans.  Nothing is written until `to_json`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN_KEYS = ("id", "parent", "name", "request", "start", "end", "error", "nested")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.request = ""
        self.overhead_s = 0.0
        self._open: list[int] = []
        self._open_names: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _begin(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "request": self.request,
            "start": 0.0,
            "end": 0.0,
            "error": None,
            "nested": self._open_names[name] > 0,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        self._open_names[name] += 1
        rec["start"] = perf_counter()
        return rec

    def _end(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._open.pop()
        self._open_names[rec["name"]] -= 1

    def _tally(self, rec: dict, failed: bool = False) -> None:
        if not rec["nested"]:
            self.count(f"{rec['name']}.calls")
            if failed:
                self.count(f"{rec['name']}.errors")

    def count(self, key: str, amount=1) -> None:
        self.counts[self.request][key] += amount

    def peak(self, key: str, value) -> None:
        """Keep the largest value seen for `key` in the current request."""
        bucket = self.counts[self.request]
        bucket[key] = max(bucket[key], value)

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """A span opened by the benchmark itself, optionally for a new request."""
        previous = self.request
        if request is not None:
            self.request = request
        rec = self._begin(name)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            self._end(rec)
            self.request = previous

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace `owner.attr` by a traced call until `uninstall`.

        `on_return(tracer, args, kwargs, result)` records the layer's counts
        after a call that returned.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            entered = perf_counter()
            rec = self._begin(name)
            self.overhead_s += rec["start"] - entered
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                self._end(rec)
                self._tally(rec, failed=True)
                raise
            self._end(rec)
            self._tally(rec)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            self.overhead_s += perf_counter() - rec["end"]
            return result

        traced.__wrapped__ = original
        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def totals(self) -> Counter:
        """Counts summed over every request."""
        out: Counter = Counter()
        for bucket in self.counts.values():
            out.update(bucket)
        return out

    def calls(self, name: str) -> int:
        """Number of outermost calls of `name` over every request."""
        return self.totals()[f"{name}.calls"]

    def seconds(self, name: str) -> float:
        """Total duration of the outermost spans called `name`."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and not s["nested"]
        )

    def self_seconds(self, name: str) -> float:
        """Duration of the outermost `name` spans minus their children's."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - child_time[s["id"]]
            for s in self.spans
            if s["name"] == name and not s["nested"]
        )

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {req: dict(c) for req, c in self.counts.items()},
            "overhead_s": self.overhead_s,
        }
