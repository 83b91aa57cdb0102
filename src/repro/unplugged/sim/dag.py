"""Task graphs: dependencies, work/span, critical paths, list scheduling.

The TCPP topics ``C_DependencyGraphs`` and ``C_TaskGraphs`` — and the
activities that teach them (ParallelRecipeCooking's recipe plan,
SpeedupJigsaw's puzzle structure, ParallelAdditionCards' adding tree) —
need a task-graph substrate: a DAG of tasks with durations, from which we
compute *work* (total duration), *span* (critical path), and schedules on
``p`` workers with the classic list-scheduling algorithm, all checkable
against Brent's bounds.

Built on networkx for cycle detection and topological order; scheduling is
deterministic (ready tasks are served in priority order, ties by name).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable

import networkx as nx

from repro.errors import SimulationError
from repro.unplugged.sim.metrics import brent_time_bounds

__all__ = ["Task", "TaskGraph", "Schedule", "ScheduledTask"]


@dataclass(frozen=True)
class Task:
    """One unit of work in the graph."""

    name: str
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimulationError(f"task {self.name!r} has negative duration")


@dataclass(frozen=True)
class ScheduledTask:
    """A task placed on a worker's timeline."""

    task: str
    worker: int
    start: float
    finish: float


@dataclass
class Schedule:
    """The result of scheduling a task graph on ``workers`` workers."""

    workers: int
    entries: list[ScheduledTask] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((e.finish for e in self.entries), default=0.0)

    def timeline(self, worker: int) -> list[ScheduledTask]:
        return sorted(
            (e for e in self.entries if e.worker == worker),
            key=lambda e: e.start,
        )

    @property
    def total_idle(self) -> float:
        return self.workers * self.makespan - sum(
            e.finish - e.start for e in self.entries
        )

    def start_of(self, task: str) -> float:
        for e in self.entries:
            if e.task == task:
                return e.start
        raise SimulationError(f"task {task!r} not in schedule")

    def finish_of(self, task: str) -> float:
        for e in self.entries:
            if e.task == task:
                return e.finish
        raise SimulationError(f"task {task!r} not in schedule")

    def gantt_rows(self) -> list[str]:
        """One text row per worker, for classroom display."""
        rows = []
        for w in range(self.workers):
            cells = [
                f"[{e.start:.0f}-{e.finish:.0f} {e.task}]"
                for e in self.timeline(w)
            ]
            rows.append(f"cook{w}: " + " ".join(cells))
        return rows


class TaskGraph:
    """A DAG of :class:`Task`\\ s with dependency edges."""

    def __init__(self):
        self._graph = nx.DiGraph()

    # -- construction ---------------------------------------------------------

    def add_task(self, name: str, duration: float,
                 deps: Iterable[str] = ()) -> Task:
        if name in self._graph:
            raise SimulationError(f"duplicate task {name!r}")
        task = Task(name, float(duration))
        self._graph.add_node(name, task=task)
        for dep in deps:
            if dep not in self._graph:
                raise SimulationError(f"unknown dependency {dep!r} of {name!r}")
            self._graph.add_edge(dep, name)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_node(name)
            raise SimulationError(f"adding {name!r} would create a cycle")
        return task

    def __contains__(self, name: str) -> bool:
        return name in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def tasks(self) -> list[Task]:
        return [self._graph.nodes[n]["task"] for n in self._graph.nodes]

    def task(self, name: str) -> Task:
        try:
            return self._graph.nodes[name]["task"]
        except KeyError:
            raise SimulationError(f"unknown task {name!r}") from None

    def dependencies(self, name: str) -> list[str]:
        return sorted(self._graph.predecessors(name))

    def dependents(self, name: str) -> list[str]:
        return sorted(self._graph.successors(name))

    # -- cost measures -----------------------------------------------------------

    @property
    def work(self) -> float:
        """T1: total duration of all tasks."""
        return sum(t.duration for t in self.tasks)

    @property
    def span(self) -> float:
        """T-infinity: the critical-path duration."""
        if len(self) == 0:
            return 0.0
        finish: dict[str, float] = {}
        for name in nx.topological_sort(self._graph):
            ready = max(
                (finish[p] for p in self._graph.predecessors(name)), default=0.0
            )
            finish[name] = ready + self.task(name).duration
        return max(finish.values())

    def critical_path(self) -> list[str]:
        """One longest (duration-weighted) chain through the graph."""
        if len(self) == 0:
            return []
        finish: dict[str, float] = {}
        parent: dict[str, str | None] = {}
        for name in nx.topological_sort(self._graph):
            preds = list(self._graph.predecessors(name))
            if preds:
                best = max(preds, key=lambda p: finish[p])
                start = finish[best]
                parent[name] = best
            else:
                start = 0.0
                parent[name] = None
            finish[name] = start + self.task(name).duration
        tail = max(finish, key=finish.get)
        path = [tail]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return list(reversed(path))

    def max_parallelism(self) -> float:
        """The average parallelism W/S (upper bound on useful workers)."""
        span = self.span
        return self.work / span if span > 0 else 0.0

    # -- scheduling ---------------------------------------------------------------

    def list_schedule(
        self,
        workers: int,
        priority: Callable[[Task], float] | None = None,
    ) -> Schedule:
        """Greedy list scheduling on ``workers`` identical workers.

        Ready tasks are dispatched to free workers in priority order
        (default: critical-path-first, i.e. longest downstream chain).
        Deterministic: ties break on task name.
        """
        if workers < 1:
            raise SimulationError("need at least one worker")
        if priority is None:
            downstream = self._downstream_lengths()
            rank = lambda t: downstream[t.name]          # noqa: E731
        else:
            rank = priority

        indegree = {n: self._graph.in_degree(n) for n in self._graph.nodes}
        ready = [
            (-rank(self.task(n)), n) for n, d in indegree.items() if d == 0
        ]
        heapq.heapify(ready)
        # (free_at, worker) heap; workers all free at t=0.
        free = [(0.0, w) for w in range(workers)]
        heapq.heapify(free)
        earliest: dict[str, float] = {n: 0.0 for n in self._graph.nodes}
        schedule = Schedule(workers=workers)
        # Completed-event heap to release dependents.
        pending: list[tuple[float, str]] = []
        scheduled = 0
        now = 0.0

        while scheduled < len(self):
            while ready:
                _, name = heapq.heappop(ready)
                free_at, worker = heapq.heappop(free)
                start = max(free_at, earliest[name])
                dur = self.task(name).duration
                finish = start + dur
                schedule.entries.append(
                    ScheduledTask(name, worker, start, finish)
                )
                heapq.heappush(free, (finish, worker))
                heapq.heappush(pending, (finish, name))
                scheduled += 1
            if scheduled >= len(self):
                break
            if not pending:
                raise SimulationError("cycle or unreachable tasks in graph")
            finish, done = heapq.heappop(pending)
            now = finish
            releases: list[tuple[float, str]] = []
            # Drain all completions at this instant.
            batch = [done]
            while pending and pending[0][0] <= now:
                batch.append(heapq.heappop(pending)[1])
            for done_name in batch:
                for succ in self._graph.successors(done_name):
                    indegree[succ] -= 1
                    earliest[succ] = max(earliest[succ], now)
                    if indegree[succ] == 0:
                        heapq.heappush(
                            ready, (-rank(self.task(succ)), succ)
                        )
        return schedule

    def _downstream_lengths(self) -> dict[str, float]:
        """Longest duration-weighted path from each task to a sink."""
        lengths: dict[str, float] = {}
        for name in reversed(list(nx.topological_sort(self._graph))):
            succ = [lengths[s] for s in self._graph.successors(name)]
            lengths[name] = self.task(name).duration + (max(succ) if succ else 0.0)
        return lengths

    def verify_schedule(self, schedule: Schedule) -> None:
        """Check a schedule is valid: every task once, deps respected,
        no worker overlap, makespan within Brent's bounds."""
        names = [e.task for e in schedule.entries]
        if sorted(names) != sorted(t.name for t in self.tasks):
            raise SimulationError("schedule does not cover the task set exactly")
        finish = {e.task: e.finish for e in schedule.entries}
        start = {e.task: e.start for e in schedule.entries}
        for e in schedule.entries:
            if abs((e.finish - e.start) - self.task(e.task).duration) > 1e-9:
                raise SimulationError(f"task {e.task!r} duration mismatch")
            for dep in self._graph.predecessors(e.task):
                if start[e.task] < finish[dep] - 1e-9:
                    raise SimulationError(
                        f"task {e.task!r} starts before dependency {dep!r} finishes"
                    )
        for w in range(schedule.workers):
            timeline = schedule.timeline(w)
            for a, b in zip(timeline, timeline[1:]):
                if b.start < a.finish - 1e-9:
                    raise SimulationError(f"worker {w} double-booked")
        lo, hi = brent_time_bounds(self.work, self.span, schedule.workers)
        if schedule.makespan < lo - 1e-9:
            raise SimulationError("makespan below the work/span lower bound")
        if schedule.makespan > hi + 1e-9:
            raise SimulationError("makespan above Brent's upper bound")
