"""Shared measurement helpers: order statistics, windows chosen by host
steal, /proc accounting, and the server process under test.

Everything here is measured from outside the program: latencies come
from the caller's clock, CPU time, peak memory and steal from ``/proc``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

#: Clock ticks per second for the utime/stime fields of /proc/<pid>/stat.
_TICKS = os.sysconf("SC_CLK_TCK")

#: A server that is not ready this long after spawning has failed.
READY_TIMEOUT_S = 120.0

#: How long a server may take to drain and exit after Ctrl-C.
STOP_TIMEOUT_S = 30.0


def percentile(values: list[float], p: float) -> float:
    """Exact order statistic: the smallest value with ``p`` % at or below."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))
    return ordered[int(rank)]


def tail(values: list[float], p: float) -> tuple[float, int]:
    """``percentile(values, p)`` and how many samples lie beyond it.

    Raises when fewer than ten samples lie beyond: such a percentile
    would rest on a handful of observations.
    """
    value = percentile(values, p)
    beyond = sum(1 for v in values if v > value)
    if beyond < 10:
        raise RuntimeError(f"p{p:g} has only {beyond} samples beyond it "
                           f"({len(values)} total); the run is too short")
    return value, beyond


def window_stats(rate: float, latencies_s: list[float],
                 steal: float) -> dict:
    """Throughput, median latency and latencies (ms) of one measured
    window, with the share of the machine's CPU time the host stole
    during it."""
    latencies_ms = [s * 1e3 for s in latencies_s]
    return {"throughput_per_s": rate, "p50_ms": percentile(latencies_ms, 50),
            "latencies_ms": latencies_ms, "steal": steal}


def least_stolen(windows: list[dict]) -> list[dict]:
    """The half of the windows (at least three) with the least steal.

    On a shared virtual machine the host sometimes runs other guests on
    this guest's cores; the guest reports that time as steal.  A window
    with much steal measures the neighbours, not the program, and no
    change to the program can cause or remove it.
    """
    keep = max(3, (len(windows) + 1) // 2)
    return sorted(windows, key=lambda w: w["steal"])[:keep]


def median_window(windows: list[dict], tail_p: float) -> tuple[dict, int]:
    """Throughput and p50 as their medians over the least-stolen windows,
    and ``tail_ms`` as the ``tail_p`` percentile of those windows'
    latencies pooled.  Also returns how many samples lie beyond it.

    While the pool would hold fewer than 20 samples beyond the tail (a
    slow run), the next least-stolen windows are added to it.
    """
    chosen = least_stolen(windows)
    pooled = [x for w in chosen for x in w["latencies_ms"]]
    ordered = sorted(windows, key=lambda w: w["steal"])
    for window in ordered[len(chosen):]:
        if len(pooled) * (100 - tail_p) / 100 >= 20:
            break
        pooled += window["latencies_ms"]
    value, beyond = tail(pooled, tail_p)
    return {"throughput_per_s": statistics.median(w["throughput_per_s"]
                                                  for w in chosen),
            "p50_ms": statistics.median(w["p50_ms"] for w in chosen),
            "tail_ms": value}, beyond


def median_sample(samples: list[dict]) -> float:
    """Median value over all samples (set-up repetitions).

    Set-up is short, and its repetitions are taken before and after the
    measured loop, so each sample sees a different moment of the
    machine; the median of all of them is steadier between runs than
    the median of a chosen few.
    """
    return statistics.median(s["value"] for s in samples)


def describe_windows(windows: list[dict]) -> str:
    chosen = least_stolen(windows)
    return (f"medians over the {len(chosen)} least-stolen of {len(windows)} "
            f"windows (steal {_steal_range(chosen)} kept, "
            f"{_steal_range(windows)} overall)")


def describe_samples(samples: list[dict]) -> str:
    return (f"samples {[round(s['value'], 4) for s in samples]} "
            f"(steal {_steal_range(samples)})")


def _steal_range(items: list[dict]) -> str:
    shares = [i["steal"] for i in items]
    return f"{min(shares):.1%}-{max(shares):.1%}"


class StealMeter:
    """Share of all CPU time the host stole since the last reading."""

    def __init__(self):
        self._last = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
        return sum(fields[:8]), fields[7]

    def share(self) -> float:
        total, steal = self._read()
        (last_total, last_steal), self._last = self._last, (total, steal)
        return (steal - last_steal) / max(1, total - last_total)


class StealFreeClock:
    """Seconds of wall time less the CPU time the host stole from this
    machine since the clock was made.

    The kernel of a virtual machine counts, per CPU, the time a CPU was
    ready to run but the host ran something else (``steal`` in
    /proc/stat, in clock ticks).  A duration on this clock is what the
    program would take with its CPUs to itself; waits of the program's
    own (I/O, locks, hand-offs between threads) stay in it.  Steal is
    summed over all CPUs, which fits work on one CPU at a time while the
    others idle (an idle CPU asks for no time, so little is stolen from
    it); for work on several CPUs at once it takes out too much.  It
    moves in ticks (10 ms), so a single short duration may be off by one
    tick; the clock never runs backwards.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._steal0 = _steal_ticks()
        self._last = 0.0

    def now(self) -> float:
        with self._lock:
            stolen = (_steal_ticks() - self._steal0) / _TICKS
            self._last = max(self._last,
                             time.perf_counter() - self._origin - stolen)
            return self._last


def _steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8])


# -- /proc accounting --------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process, from /proc/<pid>/stat."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss(pid: int) -> None:
    """Reset the peak RSS (VmHWM) of ``pid`` and its live descendants to
    their current RSS, so a later reading covers only what follows."""
    for member in descendants(pid):
        try:
            with open(f"/proc/{member}/clear_refs", "w",
                      encoding="ascii") as handle:
                handle.write("5")
        except OSError:
            continue


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            text = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(text[text.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, stack = [], [pid]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(children.get(current, []))
    return out


def tree_cpu_seconds(pid: int) -> float:
    """CPU time summed over ``pid`` and its live descendants."""
    total = 0.0
    for member in descendants(pid):
        try:
            total += cpu_seconds(member)
        except (OSError, ValueError):
            continue
    return total


def tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS summed over ``pid`` and its live descendants."""
    total = 0.0
    for member in descendants(pid):
        try:
            total += peak_rss_mb(member)
        except (OSError, RuntimeError):
            continue
    return total


# -- the program under test as a server process ------------------------------


def program_env(root: Path) -> dict[str, str]:
    """Environment for a child running the checkout's own sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Server:
    """One ``pdcunplugged serve`` process tree, started and stopped cleanly."""

    def __init__(self, argv: list[str], root: Path):
        env = program_env(root)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.port = self._read_port()
        self.base = f"http://127.0.0.1:{self.port}"
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if self._ready():
                break
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became ready")
            time.sleep(0.005)
        self.ready_s = time.perf_counter() - self.started

    def _read_port(self) -> int:
        line = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected server banner: {line!r}")
        return int(match.group(1))

    def _ready(self) -> bool:
        try:
            with urllib.request.urlopen(self.base + "/readyz",
                                        timeout=5) as response:
                return response.status == 200
        except (urllib.error.URLError, OSError):
            return False

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.base + path, timeout=30) as response:
            return json.loads(response.read())

    def get(self, path: str, headers: dict | None = None):
        request = urllib.request.Request(self.base + path,
                                         headers=headers or {})
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()

    def load(self, requests: list, clients: int):
        """One closed-loop window of ``requests`` over ``clients``
        connections, through the program's own HTTP load client."""
        from repro.serve.loadgen import run_load_http

        return run_load_http(self.base, requests, clients=clients)

    def cpu_seconds(self) -> float:
        return tree_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def reset_peak_rss(self) -> None:
        reset_peak_rss(self.proc.pid)

    def stop(self) -> None:
        """Ctrl-C the server (it drains and spills), escalate if it hangs."""
        if self.proc.poll() is None:
            members = descendants(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for member in members:
                    try:
                        os.kill(member, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.wait(timeout=10)
            _wait_gone(members)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _wait_gone(pids: list[int]) -> None:
    """Wait until none of ``pids`` is alive (orphans included); kill any
    that outlives ``STOP_TIMEOUT_S``."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    for pid in pids:
        while Path(f"/proc/{pid}").exists():
            try:
                state = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                break
            if state[state.rindex(")") + 2] == "Z":
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + STOP_TIMEOUT_S
            time.sleep(0.01)


def nproc() -> int:
    """Cores this process may run on (connections and callers per run)."""
    return len(os.sched_getaffinity(0))
