"""Spans around the calls the benchmark makes into thetacf.

A span has a name, a task id, a parent span, a start and an end.  Spans
are kept in memory and written out once the run ends, so recording costs
two clock reads and a list append per call.  The package itself is not
instrumented: every span is opened in the benchmark's own files, around
one public call.

Self time is a span's duration minus the time covered by its child
spans.  The root span of each task is ``bench.task``; its self time is
the benchmark's own work (building arguments, checking outputs).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

ROOT = "bench.task"


class NoTrace:
    """The untraced run: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, start, end):
        pass

    def begin_task(self, task_id):
        pass

    def end_task(self):
        pass


class Tracer:
    """Records one span per call; spans nest by call order."""

    enabled = True

    def __init__(self):
        self.spans = []  # [task, name, parent, start, end]
        self._stack = []
        self._task = None

    def _open(self, name, start):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._task, name, parent, start, None])
        self._stack.append(len(self.spans) - 1)

    def _close(self, end):
        self.spans[self._stack.pop()][4] = end

    def begin_task(self, task_id):
        self._task = task_id
        self._open(ROOT, perf_counter())

    def end_task(self):
        self._close(perf_counter())
        if self._stack:
            raise RuntimeError("span left open at the end of a task")
        self._task = None

    def call(self, name, fn, *args, **kwargs):
        self._open(name, perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(perf_counter())

    def add(self, name, start, end):
        """Record a span measured by the caller (a child process's run)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._task, name, parent, start, end])

    def self_times(self):
        """Per task: {span name: self seconds}, plus each root's wall time.

        Raises if a child span is not nested inside its parent, since the
        self times would then not add up to the task's wall time.
        """
        child_time = defaultdict(float)
        for task, name, parent, start, end in self.spans:
            if parent is not None:
                p = self.spans[parent]
                if start < p[3] or end > p[4]:
                    raise RuntimeError(f"span {name} escapes its parent {p[1]}")
                child_time[parent] += end - start
        per_task = defaultdict(lambda: defaultdict(float))
        walls = {}
        for idx, (task, name, parent, start, end) in enumerate(self.spans):
            per_task[task][name] += (end - start) - child_time[idx]
            if parent is None:
                walls[task] = end - start
        return per_task, walls

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for idx, (task, name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"span": idx, "task": task, "name": name, "parent": parent, "start": start, "end": end}
                    )
                    + "\n"
                )
