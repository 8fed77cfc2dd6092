"""Spans around calls into the program's layers, and a read-bytes probe.

Spans are recorded from the benchmark's side of each public call (no
span lives inside ``src/``). They stay in memory and are written out
once, at the end of a traced run. A layer's self time is its spans'
durations minus the part covered by their child spans.
"""
import contextlib
import json
import time


class Tracer:
    """In-memory span recorder: name, start, end and parent per span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._last_error: BaseException | None = None

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        rec = {"id": len(self.spans), "parent": parent, "trace": trace,
               "name": name, "start_ns": time.perf_counter_ns(),
               "end_ns": None, "error": False}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException as e:
            # Only the span the exception left first counts it as an error.
            if e is not self._last_error:
                rec["error"] = True
                self._last_error = e
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def call(tracer: Tracer | None, name: str, fn, *args):
    """``fn(*args)``, inside a span named ``name`` when tracing."""
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total duration, self time, calls and errors (ns)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    out: dict[str, dict] = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        agg = out.setdefault(
            s["name"], {"total_ns": 0, "self_ns": 0, "calls": 0, "errors": 0}
        )
        agg["total_ns"] += dur
        agg["self_ns"] += dur - child_ns[s["id"]]
        agg["calls"] += 1
        agg["errors"] += int(s["error"])
    return out


def _io_counters() -> tuple[int, int]:
    with open("/proc/self/io", "rb") as f:
        fields = dict(line.split(b":") for line in f.read().splitlines())
    return int(fields[b"rchar"]), int(fields[b"syscr"])


def measure_reads(fn, *args):
    """Run ``fn(*args)``; return (result, bytes read, read syscalls).

    Counts come from the kernel's per-process ``rchar``/``syscr``, so
    they include buffering done by Python's file objects. Reading the
    counters costs bytes and syscalls itself; the cost of one probe is
    measured back-to-back first and subtracted. Counts are for the whole
    process, so call this only where no other thread reads.
    """
    b0, s0 = _io_counters()
    b1, s1 = _io_counters()
    result = fn(*args)
    b2, s2 = _io_counters()
    return result, (b2 - b1) - (b1 - b0), (s2 - s1) - (s1 - s0)
