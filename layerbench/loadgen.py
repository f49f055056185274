"""``repro serve`` as a subprocess, driven by an open-loop request generator.

The generator sends each rung's requests on a fixed schedule (request ``i`` is
due ``i / rate`` seconds after the rung starts) over at most two keep-alive
connections.  A request whose connection is still busy when it falls due waits
for one, and its latency is timed from when it was due, so a stalled server is
charged for the wait it imposes on every later request.  ``late`` records how
long the generator itself took to send once a connection was free: when that
grows, the client and not the server set the pace.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from measure import Request, Rung

CONNECTIONS = 2
_READY = re.compile(r"serving on http://[\d.]+:(\d+)")


class Server:
    """``python -m repro serve --port 0`` with default flags."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port: int | None = None
        self.log: list[str] = []
        announced = threading.Event()

        def drain() -> None:  # keep the pipe empty for the server's lifetime
            for line in self.proc.stderr:
                self.log.append(line)
                match = _READY.search(line)
                if match and self.port is None:
                    self.port = int(match.group(1))
                    announced.set()
            announced.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        if not announced.wait(120) or self.port is None:
            self.stop()
            raise RuntimeError("server never announced a port:\n" + "".join(self.log))

    def wait_ready(self, timeout_s: float = 120.0) -> float:
        """Poll ``/readyz`` until it answers 200; seconds since spawn."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            status, _ = self.get("/readyz")
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.02)
        raise RuntimeError("server never became ready")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def gauge(self, name: str) -> float:
        """One gauge from ``/metrics``."""
        _, body = self.get("/metrics")
        for line in body.decode().splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        raise KeyError(name)

    def pids(self) -> list[int]:
        from measure import descendants

        return [self.proc.pid, *descendants(self.proc.pid)]

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(5)


class Generator:
    """Open-loop ``POST /scan`` traffic over at most two connections."""

    def __init__(self, port: int, speed=None) -> None:
        self.port = port
        #: a :class:`measure.SpeedLog` probed in the generator's idle time
        self.speed = speed
        self.connections_opened = 0
        self._lock = threading.Lock()

    def run(self, name: str, rate: float, bodies: list[bytes]) -> Rung:
        """Send every body at ``rate`` per second; return once all answered."""
        rung = Rung(name, rate)
        results: list[Request | None] = [None] * len(bodies)
        start = time.perf_counter() + 0.05
        next_index = iter(range(len(bodies)))

        def connection_loop() -> None:
            conn = None
            while True:
                with self._lock:
                    index = next(next_index, None)
                if index is None:
                    break
                free = time.perf_counter()
                due = start + index / rate
                if self._probe_due(free, due):
                    self.speed.probe()
                    free = time.perf_counter()
                if due > free:
                    time.sleep(due - free)
                sent = time.perf_counter()
                late = sent - max(due, free)
                if conn is None:
                    conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
                    with self._lock:
                        self.connections_opened += 1
                try:
                    conn.request(
                        "POST",
                        f"/scan?id={name}-{index}",
                        body=bodies[index],
                        headers={"Content-Type": "application/octet-stream"},
                    )
                    response = conn.getresponse()
                    body = response.read()
                    status = response.status
                    if response.getheader("Connection", "").lower() == "close":
                        conn.close()
                        conn = None
                except Exception:  # any failure is a failed request, counted
                    status, body = 0, b""
                    conn.close()
                    conn = None
                results[index] = Request(due, sent, time.perf_counter(), status, late, body)
            if conn is not None:
                conn.close()

        threads = [threading.Thread(target=connection_loop) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rung.requests = results
        return rung

    def _probe_due(self, now: float, due: float) -> bool:
        """Probe the host's speed when the next send is 20 ms away or more
        and no probe ran in the last 0.25 s."""
        if self.speed is None or due - now < 0.02:
            return False
        samples = self.speed.samples
        return not samples or now - samples[-1][0] >= 0.25
