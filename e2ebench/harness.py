"""Process and HTTP plumbing for the end-to-end benchmark.

A :class:`Deployment` is one `repro serve` daemon (plus, for the socket
lane, one `repro shard-worker`) spawned as subprocesses of the
benchmark, with one cohort created over HTTP.  It owns the keep-alive
client connection, samples the daemon's process tree from ``/proc``,
scrapes ``/metrics``, and tears everything down with the checks the
benchmark's correctness gate needs: the daemon drains and exits 0, no
child process outlives it, and no ``repro-shm-*`` segment leaks.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm-"
REDUCER_ENV = "REPRO_FIELD_REDUCER"

#: Seconds a spawned program gets to print its listening line, and to
#: exit after it was asked to stop.
START_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0

_WORKER_LISTEN = re.compile(r"listening on (\S+:\d+)")


def program_env() -> Dict[str, str]:
    """Environment of every spawned program: ``src`` importable, and no
    reducer override, so the measured program is the default one."""
    env = dict(os.environ)
    env.pop(REDUCER_ENV, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _command(args: List[str], spans_path: Optional[Path]) -> List[str]:
    if spans_path is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), str(spans_path), "--", *args]


# ----------------------------------------------------------------------
# /proc sampling
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Fields after "(comm)"; comm may itself contain spaces/parens.
    return raw[raw.rindex(")") + 2:].split()


def process_identity(pid: int) -> Optional[Tuple[int, int]]:
    """``(pid, start time)`` — stable across pid reuse — or None if gone."""
    fields = _stat_fields(pid)
    if fields is None or fields[0] == "Z":
        return None
    return pid, int(fields[19])


def descendants(root_pids: Iterable[int]) -> List[int]:
    """The given pids plus every live descendant, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is None or fields[0] == "Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(entry.name))
    found: List[int] = []
    frontier = [p for p in root_pids if process_identity(p) is not None]
    while frontier:
        pid = frontier.pop()
        if pid in found:
            continue
        found.append(pid)
        frontier.extend(children.get(pid, ()))
    return sorted(found)


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process (0 if gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_bytes(pid: int) -> int:
    """VmHWM of one process, in bytes (0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def shm_segments() -> set:
    """Names of the program's shared-memory segments currently present."""
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> Dict[str, float]:
    """Sum every sample of each metric name over its label sets."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


#: Per-layer counters read as deltas of the program's own ``/metrics``.
METRIC_COUNTERS = {
    "stalls": "repro_stalls_total",
    "background_refills": "repro_background_refills_total",
    "bytes_sent": "repro_transport_bytes_sent_total",
    "bytes_received": "repro_transport_bytes_received_total",
    "reconnects": "repro_transport_reconnects_total",
    "drains": "repro_drains_total",
}


def counter_deltas(before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    return {
        key: after.get(name, 0.0) - before.get(name, 0.0)
        for key, name in METRIC_COUNTERS.items()
    }


# ----------------------------------------------------------------------
# the deployment
# ----------------------------------------------------------------------
class Client:
    """One persistent HTTP/1.1 keep-alive connection to the daemon."""

    def __init__(self, address: str, timeout_s: float = 120.0):
        host, port = address.rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port),
                                               timeout=timeout_s)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = self.request(method, path, body)
        return status, json.loads(raw) if raw else None

    def close(self) -> None:
        self.conn.close()


class Deployment:
    """A daemon (+ shard worker) with one cohort, ready for timed ops.

    ``setup_s`` runs from spawning the programs until ``POST /cohorts``
    returns 201; cohort creation warms the mask pools inline, so it
    includes the cold encode.  With ``spans_dir`` set, both programs run
    under the traced launcher and write their spans there on exit.
    """

    def __init__(self, cohort_spec: Dict, socket_worker: bool,
                 spans_dir: Optional[Path] = None):
        self.spans_dir = spans_dir
        self.daemon: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.client: Optional[Client] = None
        self.cohort_id: Optional[int] = None
        self._seen: set = set()
        self._shm_before = shm_segments()
        env = program_env()
        t0 = time.perf_counter()
        try:
            if socket_worker:
                self.worker = subprocess.Popen(
                    _command(["shard-worker", "--listen", "127.0.0.1:0"],
                             self._spans_path("shard-worker")),
                    stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
                )
            self.daemon = subprocess.Popen(
                _command(["serve", "--listen", "127.0.0.1:0", "--json",
                          "--refill", "background"],
                         self._spans_path("serve")),
                stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
            )
            spec = dict(cohort_spec)
            if self.worker is not None:
                match = _WORKER_LISTEN.search(self._first_line(self.worker))
                if match is None:
                    raise RuntimeError("shard-worker printed no address")
                spec["connect"] = [match.group(1)]
            listening = json.loads(self._first_line(self.daemon))
            self.address = listening["address"]
            self.client = Client(self.address)
            status, created = self.client.json("POST", "/cohorts", spec)
            self.setup_s = time.perf_counter() - t0
            if status != 201:
                raise RuntimeError(
                    f"POST /cohorts answered {status}: {created}"
                )
            self.cohort_id = int(created["cohort_id"])
            self.note_processes()
        except BaseException:
            self.kill()
            raise

    def _spans_path(self, program: str) -> Optional[Path]:
        if self.spans_dir is None:
            return None
        return self.spans_dir / f"{program}.json"

    @staticmethod
    def _first_line(process: subprocess.Popen) -> str:
        ready, _, _ = select.select([process.stdout], [], [],
                                    START_TIMEOUT_S)
        line = process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"{' '.join(process.args[1:4])} printed no listening line "
                f"(exit code {process.poll()})"
            )
        return line

    # -- process tree ---------------------------------------------------
    def roots(self) -> List[int]:
        return [p.pid for p in (self.daemon, self.worker) if p is not None]

    def note_processes(self) -> List[int]:
        """The live process tree; remembered for the leak check."""
        pids = descendants(self.roots())
        for pid in pids:
            identity = process_identity(pid)
            if identity is not None:
                self._seen.add(identity)
        return pids

    def cpu_seconds(self) -> Dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.note_processes()}

    def peak_rss_bytes(self) -> int:
        return sum(peak_rss_bytes(pid) for pid in self.note_processes())

    def metrics(self) -> Dict[str, float]:
        status, raw = self.client.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return parse_prometheus(raw.decode("utf-8"))

    def worker_spans(self) -> Dict[str, List[float]]:
        """Per-round worker compute / queue wait from the program's traces.

        ``GET /cohorts/{id}/traces`` lists the newest round traces; each
        full trace carries one ``shard_compute[i]`` span per shard (with
        an optional ``queue_wait`` child), tagged with the pid that ran
        it.  Only shards computed outside the daemon count, so inline
        rounds read 0.  Per round this keeps the slowest shard's value —
        the one the round waits for.
        """
        daemon_pid = str(self.daemon.pid)
        out: Dict[str, List[float]] = {"compute": [], "queue_wait": []}
        status, listing = self.client.json(
            "GET", f"/cohorts/{self.cohort_id}/traces"
        )
        if status != 200:
            raise RuntimeError(f"GET traces answered {status}")
        for summary in listing["traces"]:
            status, trace = self.client.json(
                "GET", f"/traces/{summary['trace_id']}"
            )
            if status != 200:
                continue
            compute, wait = 0.0, 0.0
            for child in trace["root"]["children"]:
                if (not child["name"].startswith("shard_compute[")
                        or child["tags"].get("pid") == daemon_pid):
                    continue
                compute = max(compute, child["duration_seconds"])
                for grandchild in child["children"]:
                    if grandchild["name"] == "queue_wait":
                        wait = max(wait, grandchild["duration_seconds"])
            out["compute"].append(compute)
            out["queue_wait"].append(wait)
        return out

    # -- teardown -------------------------------------------------------
    def shutdown(self) -> List[str]:
        """Drain the daemon, stop the worker, and check nothing leaked.

        Returns the list of failed checks (empty when clean).  Every
        process this deployment started has ended when it returns.
        """
        errors: List[str] = []
        try:
            self.note_processes()
            status, summary = self.client.json("POST", "/drain", {})
            if status != 200 or not summary.get("drained"):
                errors.append(f"POST /drain answered {status}: {summary}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            errors.append(f"POST /drain failed: {exc!r}")
        finally:
            self.client.close()
        errors += self._wait_exit(self.daemon, "serve", drained_line=True)
        if self.worker is not None:
            self.worker.send_signal(signal.SIGTERM)
            errors += self._wait_exit(self.worker, "shard-worker")
        time.sleep(0.05)
        leftovers = [
            pid for pid, start in self._seen
            if process_identity(pid) == (pid, start)
        ]
        if leftovers:
            errors.append(f"child processes outlived the daemon: {leftovers}")
            for pid in leftovers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        leaked = shm_segments() - self._shm_before
        if leaked:
            errors.append(f"leaked shared-memory segments: {sorted(leaked)}")
        return errors

    @staticmethod
    def _wait_exit(process: subprocess.Popen, name: str,
                   drained_line: bool = False) -> List[str]:
        try:
            out, _ = process.communicate(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            return [f"{name} did not exit within {EXIT_TIMEOUT_S:g}s"]
        errors = []
        if process.returncode != 0:
            errors.append(f"{name} exited with code {process.returncode}")
        if drained_line:
            lines = [ln for ln in out.splitlines() if ln.strip()]
            try:
                last = json.loads(lines[-1]) if lines else {}
            except ValueError:
                last = {}
            if last.get("event") != "drained" or not last.get("drained"):
                errors.append(f"{name} printed no drained summary")
        return errors

    def kill(self) -> None:
        """Hard stop of everything started (error paths only)."""
        if self.client is not None:
            self.client.close()
        pids = descendants(self.roots())
        for process in (self.daemon, self.worker):
            if process is not None and process.poll() is None:
                process.kill()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for process in (self.daemon, self.worker):
            if process is not None:
                process.communicate()
