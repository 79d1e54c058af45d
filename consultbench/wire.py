"""The wire workloads: one client against ``repro.server``.

The server runs in its own process (:mod:`consultbench.launcher`) and
this process is the one client.  ``wire_mixed`` is a closed loop: one
keep-alive connection, ``POST /consult`` waiting for each result before
the next.  ``wire_open`` is an open loop: a submitter thread sends each
request at its due time (``mode: "future"``) on one keep-alive
connection, and the calling thread collects the results in order
(``GET /futures/<id>?wait=``) on a second one, so a backlog queues in
the server, not here.  Open-loop latency is timed from each request's
due time, not from when it was sent, so a late submitter shows up in
the latency as well as in ``loadgen.lag_p99_ms``.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from repro.service.load import KIND_REPEAT

from consultbench import world
from consultbench.hostspeed import HostSpeed

#: How long the collector long-polls one future per request.
LONG_POLL_S = 30
#: How long a launcher may take to become ready.
READY_TIMEOUT_S = 120.0


class LauncherProcess:
    """One spawned server process and its stdin/stdout command channel.

    ``setup_s`` is the time from spawning it until ``/readyz`` answered
    200, and ``setup_at`` the middle moment of that time.
    """

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 traced: bool, state_dir: str, spans_path: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [root, os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "consultbench.launcher",
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--state-dir", state_dir, "--trace", "1" if traced else "0",
        ]
        if spans_path:
            command += ["--spans", spans_path]
        self.state_dir = state_dir
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"launcher did not announce a port: {line!r}")
            self.port = int(line.split()[1])
            self._wait_ready(started + READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        ready = time.perf_counter()
        self.setup_s = ready - started
        self.setup_at = (started + ready) / 2

    def _wait_ready(self, deadline: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become ready")
            time.sleep(0.005)

    def call(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited during {cmd!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def close(self) -> None:
        """Graceful stop; kills the process if that fails."""
        try:
            self.call("quit")
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, RuntimeError, ValueError,
                subprocess.TimeoutExpired):
            self.kill()
        finally:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        shutil.rmtree(self.state_dir, ignore_errors=True)


@dataclass
class Request:
    """One open-loop request's timeline (perf_counter seconds)."""

    index: int
    due: float
    sent: float = 0.0
    polled: float = 0.0
    received: float = 0.0
    status: int = 0
    body: dict | None = None
    #: Turns this request's times into times at the reference speed
    #: (closed loop; 1 on the open loop, see ``run``).
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        body = self.body or {}
        majority = body.get("majority") or {}
        return (
            self.status == 200 and body.get("state") == "resolved"
            and bool(majority.get("accepted")) and bool(body.get("adopted"))
        )

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1000.0

    @property
    def wire_ms(self) -> float:
        """Round trip minus the body's service latency, minus the time
        the in-order collector was still busy with earlier requests
        after this one had resolved."""
        service = self.body["latency_ms"] / 1000.0
        collector_late = max(0.0, self.polled - self.sent - service)
        return (self.received - self.sent - service - collector_late) * 1000.0


def _post(conn, path: str, payload: dict) -> tuple[int, dict]:
    conn.request("POST", path, json.dumps(payload),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def _get(conn, path: str) -> tuple[int, dict]:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def open_loop(port: int, stream, offsets) -> tuple[list[Request], float]:
    """Send ``stream[i]`` at ``offsets[i]``; collect every result in order.

    Returns the requests and the phase's duration (first due time to
    the last result).
    """
    submit_conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    collect_conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    handoff: queue.Queue = queue.Queue()
    start = time.perf_counter() + 0.05
    requests = [Request(i, start + offset) for i, offset in enumerate(offsets)]
    errors: list[BaseException] = []

    def submitter() -> None:
        try:
            for request in requests:
                delay = request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request.sent = time.perf_counter()
                status, body = _post(submit_conn, "/consult", {
                    "agent": world.AGENT,
                    "game_id": stream[request.index].game_id,
                    "mode": "future",
                })
                handoff.put((request, status, body))
        except BaseException as exc:  # re-raised by the collector
            errors.append(exc)
        finally:
            handoff.put(None)

    thread = threading.Thread(target=submitter, name="consultbench-submitter")
    thread.start()
    try:
        while (item := handoff.get()) is not None:
            request, status, body = item
            if status != 202:
                request.status, request.body = status, body
                request.received = time.perf_counter()
                continue
            request.polled = time.perf_counter()
            path = f"/futures/{body['future_id']}?wait={LONG_POLL_S}"
            status, body = _get(collect_conn, path)
            while status == 202:
                status, body = _get(collect_conn, path)
            request.received = time.perf_counter()
            request.status, request.body = status, body
    finally:
        thread.join()
        submit_conn.close()
        collect_conn.close()
    if errors:
        raise errors[0]
    end = max((r.received for r in requests), default=start)
    return requests, end - start


def closed_loop(port: int, stream, seconds: float, count: int | None = None,
                min_count: int = 0, speed: HostSpeed | None = None
                ) -> tuple[list[Request], float, bool]:
    """Consult ``stream`` in order, one ``POST /consult`` (``mode:
    "wait"``) at a time on one keep-alive connection, for ``seconds``
    of round-trip time and at least ``min_count`` requests (or exactly
    ``count`` requests); returns the requests, the phase's duration
    (the sum of their round trips), and whether the stream ran out
    first.  With ``speed``, reference slices are taken between
    requests and every time is at the reference speed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    requests: list[Request] = []
    busy = 0.0

    def done() -> bool:
        if count is not None:
            return len(requests) >= count
        return busy >= seconds and len(requests) >= min_count

    if speed is not None:
        speed.sample()
    try:
        for index, entry in enumerate(stream):
            if done():
                break
            now = time.perf_counter()
            request = Request(index, now, sent=now, polled=now)
            request.status, request.body = _post(conn, "/consult", {
                "agent": world.AGENT, "game_id": entry.game_id,
            })
            request.received = time.perf_counter()
            requests.append(request)
            busy += request.received - request.sent
            if speed is not None:
                speed.after(request.received - request.sent)
    finally:
        conn.close()
    if speed is not None:
        speed.sample()
        for request in requests:
            request.scale = speed.scale((request.sent + request.received) / 2)
    duration = sum(
        (r.received - r.sent) * r.scale for r in requests
    )
    return requests, duration, not done()


def _served_check(launcher: LauncherProcess, stream,
                  requests: list[Request]) -> list[str]:
    """Failures among ``requests`` (``stream[i]`` each), including the
    server-side check and repeat-vs-base bit-identity."""
    failures = []
    served = []
    suggestion_of = {}
    for request in requests:
        entry = stream[request.index]
        if not request.ok:
            failures.append(
                f"{entry.game_id}: HTTP {request.status} {request.body!r:.200}"
            )
            continue
        suggestion = request.body["advice"]["suggestion"]
        suggestion_of[entry.game_id] = suggestion
        served.append([entry.game_id, suggestion])
    for request in requests:
        entry = stream[request.index]
        if entry.kind == KIND_REPEAT and entry.game_id in suggestion_of \
                and entry.base_id in suggestion_of \
                and suggestion_of[entry.game_id] != suggestion_of[entry.base_id]:
            failures.append(
                f"{entry.game_id}: repeat differs from its base {entry.base_id}"
            )
    failures += launcher.call("check", served=served)["violations"]
    return failures


def _ran_out(workload: world.Workload, entries: int) -> str:
    return (f"{workload.name}: the closed loop consulted all {entries} "
            "stream entries before its phase ended; raise "
            "world.WIRE_CLOSED_ENTRIES_PER_S")


def _phase_e2e(workload: world.Workload, requests: list[Request],
               duration: float, peak_rss: float) -> dict:
    good = [r for r in requests if r.ok]
    latencies = [r.latency_ms * r.scale for r in good]
    pct = world.tail_percentile(len(latencies), workload.tail_percentile)
    limit = workload.latency_limit_ms
    lags = [(r.sent - r.due) * 1000.0 for r in requests]
    return {
        "consults_per_s": len(good) / duration if duration else 0.0,
        "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "latency_tail_ms": world.percentile(latencies, pct) if latencies else 0.0,
        "tail_percentile": pct,
        "samples": len(latencies),
        "within_limit_ratio": (
            sum(1 for value in latencies if value <= limit) / len(requests)
        ),
        "peak_rss_mb": peak_rss,
        "lag_p99_ms": world.percentile(lags, 99.0),
    }


def run(root: str, out_dir: str, workload: world.Workload, seed: int,
        seconds: float, traced: bool, spans_path=None) -> dict:
    """One benchmark run of a wire workload.

    Set-up times and the closed loop's times are reported at the
    reference speed (:mod:`consultbench.hostspeed`); the open loop's
    are not, because a reference slice in the client would delay the
    collection of results that are already due.
    """
    with HostSpeed() as speed:
        return _run(root, out_dir, workload, seed, seconds, traced,
                    spans_path, speed)


def _run(root: str, out_dir: str, workload: world.Workload, seed: int,
         seconds: float, traced: bool, spans_path, speed: HostSpeed) -> dict:
    phase_s = seconds / 2 if traced else seconds
    stream, offsets = world.wire_inputs(
        workload.name, seed, phase_s, extra=workload.retain_consults
    )
    setups = []
    attempted = 0
    failures: list[str] = []
    result: dict = {}
    untraced: list[Request] = []
    if traced:
        # The untraced phase on one launcher, then the same requests
        # traced on a second one; no set-up time is reported.
        roles = ["untraced", "traced"]
    else:
        # Set-ups before and after the timed phase, so that their
        # median samples the machine across the whole run.
        before = workload.setup_repeats // 2
        roles = ["setup"] * before + ["untraced"] \
            + ["setup"] * (workload.setup_repeats - 1 - before)
    for repeat, role in enumerate(roles):
        measure = role != "setup"
        trace_this = role == "traced"
        speed.sample()
        launcher = LauncherProcess(
            root, workload.name, seed, phase_s, trace_this,
            os.path.join(out_dir, f"state-{os.getpid()}-{repeat}"),
            spans_path if trace_this else None,
        )
        try:
            speed.sample()
            setups.append((launcher.setup_s, launcher.setup_at))
            if not measure:
                continue
            # The untraced phase of a traced run reports no peak RSS.
            rss_at = 0 if traced else workload.rss_at_consults
            launcher.call("begin", rss_at=rss_at)
            ran_out = False
            if offsets is not None:
                requests, duration = open_loop(launcher.port, stream, offsets)
            else:
                requests, duration, ran_out = closed_loop(
                    launcher.port, stream, phase_s,
                    count=len(untraced) if trace_this else None,
                    min_count=rss_at, speed=speed,
                )
            if ran_out:
                failures.append(_ran_out(workload, len(stream)))
            ended = launcher.call("end")
            if ended["peak_rss_mb"] is None:
                failures.append(
                    f"{workload.name}: fewer than {rss_at} consultations "
                    "completed, so the peak RSS was not read"
                )
                ended["peak_rss_mb"] = 0.0
            attempted += len(requests)
            checked = list(requests)
            e2e = _phase_e2e(workload, requests, duration, ended["peak_rss_mb"])
            if not trace_this:
                result.update(e2e)
                untraced = requests
            else:
                layers = ended["layers"]
                good = [r for r in requests if r.ok]
                layers["server.wire_ms"] = (
                    statistics.fmean(r.wire_ms for r in good) if good else 0.0
                )
                layers["loadgen.lag_p99_ms"] = e2e["lag_p99_ms"]
                layers["trace.overhead_ratio"] = (
                    result["consults_per_s"] / e2e["consults_per_s"]
                    if e2e["consults_per_s"] else 0.0
                )
                launcher.call("retain-start")
                extra, _, ran_out = closed_loop(
                    launcher.port, stream[len(requests):], 0.0,
                    count=workload.retain_consults,
                )
                if ran_out:
                    failures.append(_ran_out(workload, len(stream)))
                for request in extra:
                    request.index += len(requests)
                layers["core.retained_kb_per_consult"] = launcher.call(
                    "retain-stop", consults=len(extra)
                )["kb_per_consult"]
                attempted += len(extra)
                checked += extra
                result["layers"] = layers
                result["search_share"] = ended["search_share"]
            failures += _served_check(launcher, stream, checked)
        finally:
            launcher.close()
    result["setup_s"] = statistics.median(
        elapsed * speed.scale(moment) for elapsed, moment in setups
    )
    result["speed_scale"] = speed.median_scale()
    result["slices"] = len(speed.seconds)
    result["attempted"] = attempted
    result["failures"] = failures
    return result
