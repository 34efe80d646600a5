"""Supervised multi-worker prediction fleet.

One :class:`FleetSupervisor` owns N worker processes, each a plain
``repro serve`` subprocess loading the same city snapshot and checkpoint
bundle.  Workers are full replicas of the serving state; the
:mod:`repro.serving.router` partitions the *query* space across them, so
the fleet behaves — bit for bit — like one big :class:`PredictionService`
with N batcher threads and N times the cache/feature memory.

Lifecycle guarantees:

- **Supervised death.**  A monitor thread polls worker processes; a dead
  worker (crash, OOM, SIGKILL) is respawned with the fleet's *current*
  checkpoint, the full observation journal is replayed into it, and only
  then does its shard go back into rotation.  The router retries
  requests that were in flight on the dead process, so a kill costs
  latency, never correctness.
- **Observation journal.**  ``/observe`` broadcasts reach every live
  worker and are appended to an in-memory journal under one lock;
  respawn replay holds the same lock through the ready flip, so every
  observation lands on every worker exactly once — either live or via
  replay — and a respawned replica converges to the same city state as
  its peers.
- **Checkpoint distribution.**  Workers can watch the bundle directory
  (``watch_interval``) and hot-swap themselves when a new atomic bundle
  lands, or the router's ``/reload`` broadcast swaps them eagerly; the
  supervisor remembers the newest checkpoint so respawned workers load
  it directly.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import ConfigError
from ..obs import MetricsRegistry, get_logger, get_registry
from .router import (
    SHARD_STRATEGIES,
    TRANSPORT_ERRORS,
    aggregate_prometheus,
    close_pools,
    request_json,
    request_text,
    shard_for,
)

__all__ = ["FleetConfig", "FleetSupervisor"]

_log = get_logger(__name__)

_READY_LINE = re.compile(r"^serving (\S+) on http://(\S+):(\d+)", re.MULTILINE)


@dataclass(frozen=True)
class FleetConfig:
    """Deployment shape of one fleet."""

    city: str
    checkpoint: str
    scale: str = "tiny"
    workers: int = 2
    shard_by: str = "area-slot"
    host: str = "127.0.0.1"
    max_batch: int = 32
    cache_size: int = 4096
    #: Forwarded to workers as ``--no-tape``.
    use_tape: bool = True
    #: Seconds between checkpoint-directory polls in each worker
    #: (0 disables the per-worker watcher).
    watch_interval: float = 0.0
    #: Where worker stdout/stderr/manifests land (default: a temp dir).
    run_dir: Optional[str] = None
    startup_timeout: float = 120.0
    #: Router budget for retrying a shard whose worker died.
    retry_timeout: float = 30.0
    #: Monitor poll cadence for worker death detection.
    poll_interval: float = 0.2
    #: Observation journal bound; beyond it respawned replicas no longer
    #: converge (the overflow is counted and logged, never silent).
    journal_limit: int = 100_000

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if self.shard_by not in SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard_by {self.shard_by!r}; known: {SHARD_STRATEGIES}"
            )


class _Worker:
    """Book-keeping for one supervised serve subprocess."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[str] = None
        self.version: Optional[str] = None
        self.generation = 0
        self.stdout_path: Optional[str] = None
        self.stderr_path: Optional[str] = None
        #: Set while the worker is serving; cleared on detected death and
        #: re-set only after respawn + journal replay.
        self.ready = threading.Event()


class FleetSupervisor:
    """Spawn, monitor, respawn and aggregate N serve workers."""

    def __init__(
        self,
        config: FleetConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self.run_dir = os.path.abspath(
            config.run_dir or tempfile.mkdtemp(prefix="repro_fleet_")
        )
        os.makedirs(self.run_dir, exist_ok=True)
        self._city = os.path.abspath(config.city)
        self._checkpoint = os.path.abspath(config.checkpoint)
        self.workers = [_Worker(i) for i in range(config.workers)]
        self.retry_timeout = config.retry_timeout
        self.respawns = 0
        self._journal: List[dict] = []
        self._journal_dropped = 0
        self._journal_lock = threading.Lock()
        self._shutting_down = False
        self._stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        """Spawn every worker, wait until all are serving, start the
        monitor.  Raises (and reaps) if any worker fails to come up."""
        try:
            for worker in self.workers:
                self._spawn(worker)
            for worker in self.workers:
                self._wait_ready(worker)
                worker.ready.set()
        except Exception:
            self.shutdown()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-fleet-monitor", daemon=True
        )
        self._monitor_thread.start()
        _log.event(
            "fleet.started",
            workers=len(self.workers),
            shard_by=self.config.shard_by,
            addresses=[worker.address for worker in self.workers],
        )
        return self

    def shutdown(self, timeout: float = 15.0) -> None:
        """Stop workers cleanly (HTTP /shutdown), escalating to kill."""
        self._shutting_down = True
        self._stop.set()
        if self._monitor_thread is not None and self._monitor_thread.is_alive():
            self._monitor_thread.join(timeout=5.0)
        for worker in self.workers:
            worker.ready.clear()
            if worker.proc is None or worker.proc.poll() is not None:
                continue
            if worker.address:
                try:
                    request_json(
                        worker.address, "POST", "/shutdown", {}, timeout=5.0
                    )
                except TRANSPORT_ERRORS:
                    pass
        # Release every pooled keep-alive connection to the workers,
        # whichever thread opened it, BEFORE waiting on them: each idle
        # connection pins a worker handler thread, and the worker's
        # server_close would wait its full handler_join_timeout for it.
        close_pools()
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            if worker.proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                worker.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.proc.terminate()
                try:
                    worker.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    worker.proc.kill()
                    worker.proc.wait(timeout=5.0)
        _log.event("fleet.stopped", respawns=self.respawns)

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @property
    def label(self) -> str:
        """Display tag for the ``serving ... on http://...`` banner."""
        return f"fleet[{len(self.workers)}x/{self.config.shard_by}]"

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _command(self, worker: _Worker) -> List[str]:
        cfg = self.config
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--city", self._city,
            "--checkpoint", self._checkpoint,
            "--scale", cfg.scale,
            "--host", cfg.host,
            "--port", "0",
            "--max-batch", str(cfg.max_batch),
            "--cache-size", str(cfg.cache_size),
            "--manifest",
            os.path.join(self.run_dir, f"worker-{worker.index}.manifest.json"),
            "--quiet",
        ]
        if not cfg.use_tape:
            cmd.append("--no-tape")
        if cfg.watch_interval > 0:
            cmd += ["--watch-checkpoint", str(cfg.watch_interval)]
        return cmd

    def _spawn(self, worker: _Worker) -> None:
        worker.generation += 1
        stem = os.path.join(
            self.run_dir, f"worker-{worker.index}.g{worker.generation}"
        )
        worker.stdout_path = f"{stem}.out"
        worker.stderr_path = f"{stem}.err"
        # Workers must import the exact repro tree the supervisor runs,
        # even when it reaches it via a relative PYTHONPATH or cwd trick.
        env = os.environ.copy()
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
        )
        with open(worker.stdout_path, "wb") as out, \
                open(worker.stderr_path, "wb") as err:
            worker.proc = subprocess.Popen(
                self._command(worker), stdout=out, stderr=err, env=env
            )
        _log.event(
            "fleet.worker_spawned",
            worker=worker.index,
            generation=worker.generation,
            pid=worker.proc.pid,
        )

    def _wait_ready(self, worker: _Worker) -> None:
        """Poll the worker's stdout for its serving banner."""
        deadline = time.monotonic() + self.config.startup_timeout
        while time.monotonic() < deadline:
            if worker.proc.poll() is not None:
                raise RuntimeError(
                    f"fleet worker {worker.index} exited with code "
                    f"{worker.proc.returncode} during startup: "
                    f"{self._stderr_tail(worker)}"
                )
            try:
                with open(worker.stdout_path, "r", encoding="utf-8") as handle:
                    match = _READY_LINE.search(handle.read())
            except OSError:
                match = None
            if match:
                worker.version = match.group(1)
                worker.address = f"{match.group(2)}:{match.group(3)}"
                return
            time.sleep(0.05)
        raise RuntimeError(
            f"fleet worker {worker.index} did not start within "
            f"{self.config.startup_timeout:.0f}s: {self._stderr_tail(worker)}"
        )

    def _stderr_tail(self, worker: _Worker, limit: int = 2000) -> str:
        try:
            with open(worker.stderr_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                return handle.read()[-limit:]
        except OSError:
            return "<no stderr captured>"

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _monitor(self) -> None:
        while not self._stop.wait(self.config.poll_interval):
            for worker in self.workers:
                if self._shutting_down:
                    return
                proc = worker.proc
                if proc is None or proc.poll() is None:
                    continue
                worker.ready.clear()
                _log.event(
                    "fleet.worker_died",
                    worker=worker.index,
                    returncode=proc.returncode,
                    generation=worker.generation,
                )
                try:
                    self._respawn(worker)
                except Exception as error:  # noqa: BLE001 — retried next tick
                    _log.event(
                        "fleet.respawn_failed",
                        worker=worker.index,
                        error=repr(error),
                    )
                    # Leave no half-started process behind: a live-but-
                    # never-ready worker would stall its shard forever,
                    # while a dead one is retried on the next tick.
                    if worker.proc is not None and worker.proc.poll() is None:
                        worker.proc.kill()

    def _respawn(self, worker: _Worker) -> None:
        self._spawn(worker)
        self._wait_ready(worker)
        self._replay_and_activate(worker)
        self.respawns += 1
        self.registry.counter("repro.fleet.respawns")
        _log.event(
            "fleet.worker_respawned",
            worker=worker.index,
            generation=worker.generation,
            address=worker.address,
            replayed=len(self._journal),
        )

    def _replay_and_activate(self, worker: _Worker) -> None:
        """Replay the observation journal, then put the shard back.

        Holds the journal lock through the ready flip so a concurrent
        ``broadcast_observe`` either lands in the journal we replay or
        reaches the worker live — never neither.
        """
        with self._journal_lock:
            for body in self._journal:
                status, payload = request_json(
                    worker.address, "POST", "/observe", body,
                    timeout=self.retry_timeout,
                )
                if status != 200:
                    _log.event(
                        "fleet.replay_rejected",
                        worker=worker.index,
                        status=status,
                        error=payload.get("error"),
                    )
            worker.ready.set()

    # ------------------------------------------------------------------
    # Router surface
    # ------------------------------------------------------------------

    def shard_for_query(self, area_id: int, timeslot: int) -> int:
        return shard_for(area_id, timeslot, len(self.workers), self.config.shard_by)

    def address_of(self, shard: int, deadline: float) -> str:
        """The shard's current address, waiting out a respawn if needed."""
        worker = self.workers[shard]
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not worker.ready.wait(timeout=remaining):
            raise TimeoutError(
                f"shard {shard} unavailable (worker respawning too slowly)"
            )
        return worker.address

    def report_failure(self, shard: int, address: str) -> None:
        """Router saw a transport failure against ``address``.

        If the process is actually dead, pull the shard out of rotation
        immediately instead of waiting for the next monitor tick (the
        router's retry loop then blocks in :meth:`address_of` until the
        respawn completes).  Transient socket errors against a live
        process leave the shard in rotation.
        """
        worker = self.workers[shard]
        if (
            worker.address == address
            and worker.proc is not None
            and worker.proc.poll() is not None
        ):
            worker.ready.clear()

    def broadcast_observe(self, body: dict) -> Tuple[int, dict]:
        """Journal + fan an observation out to every live worker.

        Returns the summed ``invalidated``/``profiles_dropped`` counts.
        Because each cached prediction lives on exactly one shard (the
        router partitions queries), the fleet-wide ``invalidated`` sum
        equals what a single process with every entry in one cache would
        report — the exact-set invariant survives sharding.
        """
        with self._journal_lock:
            journaled = False
            if len(self._journal) < self.config.journal_limit:
                self._journal.append(body)
                journaled = True
            else:
                self._journal_dropped += 1
                _log.event(
                    "fleet.journal_overflow", dropped=self._journal_dropped
                )
            totals = {"invalidated": 0, "profiles_dropped": 0}
            reached = 0
            failure: Optional[Tuple[int, dict]] = None
            for worker in self.workers:
                if not worker.ready.is_set():
                    continue  # replay delivers it after respawn
                try:
                    status, payload = request_json(
                        worker.address, "POST", "/observe", body,
                        timeout=self.retry_timeout,
                    )
                except TRANSPORT_ERRORS:
                    self.report_failure(worker.index, worker.address)
                    continue  # replay delivers it after respawn
                if status != 200:
                    failure = (status, payload)
                    break
                reached += 1
                for key in totals:
                    totals[key] += int(payload.get(key, 0))
            if failure is not None:
                # Validation failures are deterministic across replicas
                # (same code, same state): nothing mutated anywhere, so
                # drop the journal entry and pass the error through.
                if journaled and self._journal and self._journal[-1] is body:
                    self._journal.pop()
                return failure
            self.registry.counter("repro.fleet.observes")
            totals["workers_reached"] = reached
            return 200, totals

    def broadcast_reload(self, checkpoint: str) -> Tuple[int, dict]:
        """Hot-swap every worker to ``checkpoint``; respawns load it too."""
        path = os.path.abspath(checkpoint)
        versions: Dict[str, str] = {}
        for worker in self.workers:
            if not worker.ready.is_set():
                continue
            try:
                status, payload = request_json(
                    worker.address, "POST", "/reload",
                    {"checkpoint": path}, timeout=self.retry_timeout,
                )
            except TRANSPORT_ERRORS:
                self.report_failure(worker.index, worker.address)
                continue
            if status != 200:
                return status, payload
            versions[str(worker.index)] = payload.get("version", "")
        self._checkpoint = path
        self.registry.counter("repro.fleet.reloads")
        return 200, {"versions": versions}

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def healthz(self) -> Tuple[int, dict]:
        workers = []
        all_ok = True
        for worker in self.workers:
            entry = {
                "shard": worker.index,
                "address": worker.address,
                "generation": worker.generation,
                "ready": worker.ready.is_set(),
            }
            if worker.ready.is_set():
                try:
                    status, payload = request_json(
                        worker.address, "GET", "/healthz", timeout=5.0
                    )
                    entry["status"] = payload.get("status", f"http {status}")
                    entry["version"] = payload.get("version")
                    if status != 200:
                        all_ok = False
                except TRANSPORT_ERRORS:
                    entry["status"] = "unreachable"
                    all_ok = False
            else:
                entry["status"] = "respawning"
                all_ok = False
            workers.append(entry)
        status = 200 if all_ok else 503
        return status, {
            "status": "ok" if all_ok else "degraded",
            "workers": workers,
        }

    def stats(self) -> dict:
        workers = []
        for worker in self.workers:
            entry = {
                "shard": worker.index,
                "address": worker.address,
                "generation": worker.generation,
                "ready": worker.ready.is_set(),
            }
            if worker.ready.is_set():
                try:
                    status, payload = request_json(
                        worker.address, "GET", "/stats", timeout=5.0
                    )
                    if status == 200:
                        entry["stats"] = payload
                except TRANSPORT_ERRORS:
                    pass
            workers.append(entry)
        with self._journal_lock:
            journal_size = len(self._journal)
        return {
            "fleet": {
                "workers": len(self.workers),
                "shard_by": self.config.shard_by,
                "respawns": self.respawns,
                "journal_entries": journal_size,
                "journal_dropped": self._journal_dropped,
                "checkpoint": self._checkpoint,
            },
            "workers": workers,
        }

    def metrics_text(self) -> str:
        """Fleet-wide Prometheus exposition: workers merged + router's own."""
        texts = []
        for worker in self.workers:
            if not worker.ready.is_set():
                continue
            try:
                status, text, _ = request_text(worker.address, "/metrics",
                                               timeout=5.0)
            except TRANSPORT_ERRORS:
                continue
            if status == 200:
                texts.append(text)
        texts.append(self.registry.to_prometheus())
        return aggregate_prometheus(texts)
