"""Tests for the HTTP front end, including the SIGKILL/resume story."""

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.server.http import HttpFrontend
from repro.server.service import SynthesisService
from repro.telemetry.schema import check_tree, validate_record

REPO_ROOT = Path(__file__).resolve().parents[1]
SMALL_KSTAR = {"nodes": 12, "devices": 5, "ladder": [1, 2]}
#: A kstar instance slow enough (~3s, first rung ~0.2s) that a test can
#: reliably SIGKILL the server after the first rung checkpoints but well
#: before the sweep finishes.
SLOW_KSTAR = {
    "nodes": 140, "devices": 45, "ladder": [2, 6, 10, 14, 18],
    "min_relative_gain": -1.0,
}


def _request(method, url, payload=None, timeout=30.0):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read() or b"null")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"null")


@contextlib.contextmanager
def http_service(**service_kwargs):
    """An in-process service + frontend on an ephemeral port."""
    svc = SynthesisService(**service_kwargs)
    frontend = HttpFrontend(svc, "127.0.0.1", 0)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    task_box = {}

    async def _run():
        await frontend.start()
        started.set()
        try:
            await frontend.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await frontend.stop()

    def _thread():
        asyncio.set_event_loop(loop)
        task_box["task"] = loop.create_task(_run())
        try:
            loop.run_until_complete(task_box["task"])
        finally:
            loop.close()

    thread = threading.Thread(target=_thread, daemon=True)
    thread.start()
    assert started.wait(10.0), "frontend never bound"
    try:
        yield svc, f"http://127.0.0.1:{frontend.port}"
    finally:
        loop.call_soon_threadsafe(task_box["task"].cancel)
        thread.join(timeout=10.0)
        svc.shutdown(timeout=30.0)


class TestEndpoints:
    def test_full_round_trip(self):
        with http_service(workers=1) as (svc, base):
            status, body = _request("GET", f"{base}/healthz")
            assert (status, body) == (200, {"ok": True})

            status, job = _request(
                "POST", f"{base}/v1/jobs",
                {"kind": "kstar", "problem": dict(SMALL_KSTAR)},
            )
            assert status == 202
            assert job["state"] in ("queued", "running", "done")
            job_id = job["id"]

            # Tail the event stream until the job's root span lands;
            # urllib transparently decodes the chunked body.
            records = []
            with urllib.request.urlopen(
                f"{base}/v1/jobs/{job_id}/events", timeout=60.0
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "application/x-ndjson"
                )
                for line in resp:
                    records.append(json.loads(line))
            assert records
            problems = []
            for i, record in enumerate(records):
                problems += validate_record(record, where=f"record {i}")
            problems += check_tree(records)
            assert problems == [], problems

            # The stream only ends once the job is terminal.
            status, view = _request("GET", f"{base}/v1/jobs/{job_id}")
            assert status == 200
            assert view["state"] == "done"
            assert view["result"]["ok"] is True
            assert view["result"]["result"]["kind"] == "kstar"

            status, listing = _request("GET", f"{base}/v1/jobs")
            assert status == 200
            assert [j["id"] for j in listing["jobs"]] == [job_id]

    def test_metrics_endpoint(self):
        with http_service(workers=1) as (svc, base):
            status, job = _request(
                "POST", f"{base}/v1/jobs",
                {"kind": "kstar", "problem": dict(SMALL_KSTAR)},
            )
            assert status == 202
            svc.wait(job["id"], timeout=60.0)
            req = urllib.request.Request(f"{base}/metrics")
            with urllib.request.urlopen(req, timeout=10.0) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode()
            assert "server_jobs_submitted" in text
            assert "server_jobs_completed" in text

    def test_error_paths(self):
        with http_service(workers=1) as (svc, base):
            status, body = _request("GET", f"{base}/v1/jobs/nope")
            assert status == 404 and "error" in body
            status, _ = _request("GET", f"{base}/v1/jobs/nope/events")
            assert status == 404
            status, _ = _request("GET", f"{base}/no/such/route")
            assert status == 404
            status, body = _request(
                "POST", f"{base}/v1/jobs", {"kind": "mystery"}
            )
            assert status == 400 and "unknown job kind" in body["error"]
            status, _ = _request("DELETE", f"{base}/v1/jobs/nope")
            assert status == 405

            # Raw non-JSON body.
            req = urllib.request.Request(
                f"{base}/v1/jobs", data=b"{not json", method="POST"
            )
            try:
                with urllib.request.urlopen(req, timeout=10.0):
                    raise AssertionError("expected 400")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400


class _ServeProcess:
    """A ``repro serve`` child process with captured stdout."""

    def __init__(self, state_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1",
                "--state-dir", str(state_dir),
            ],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.lines: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))

    def base_url(self, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.lines):
                if line.startswith("serving on "):
                    return line[len("serving on "):].strip()
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "serve exited early:\n" + "\n".join(self.lines)
                )
            time.sleep(0.02)
        raise TimeoutError(
            "serve never reported its address:\n" + "\n".join(self.lines)
        )

    def kill9(self) -> None:
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=10.0)


class TestKillResume:
    def test_sigkill_midjob_then_resume(self, tmp_path):
        """The acceptance story: SIGKILL the server while a kstar sweep
        is mid-ladder; a restarted server on the same state dir resumes
        the sweep from its checkpoint and finishes it."""
        first = _ServeProcess(tmp_path)
        try:
            base = first.base_url()
            status, job = _request(
                "POST", f"{base}/v1/jobs",
                {"kind": "kstar", "problem": dict(SLOW_KSTAR)},
                timeout=10.0,
            )
            assert status == 202
            job_id = job["id"]

            # Wait for the first rung to land in the sweep checkpoint
            # (header line + at least one rung record), then pull the
            # plug with several rungs still to solve.
            sweep = tmp_path / f"job-{job_id}.sweep.jsonl"
            deadline = time.monotonic() + 60.0
            while True:
                assert time.monotonic() < deadline, "no rung checkpointed"
                if sweep.exists():
                    lines = sweep.read_text().splitlines()
                    if len(lines) >= 2 and '"k_star"' in lines[-1]:
                        break
                time.sleep(0.02)
            first.kill9()
            assert first.proc.poll() is not None
        finally:
            first.kill9()

        # The job must not have finished: its state file still says
        # queued/running, which is what recovery keys on.
        state = tmp_path / f"job-{job_id}.state.jsonl"
        last = json.loads(state.read_text().splitlines()[-1])
        assert last.get("state") in ("queued", "running")

        second = _ServeProcess(tmp_path)
        try:
            base = second.base_url()
            deadline = time.monotonic() + 180.0
            while True:
                status, view = _request(
                    "GET", f"{base}/v1/jobs/{job_id}", timeout=10.0
                )
                assert status == 200
                if view["state"] in ("done", "failed"):
                    break
                assert time.monotonic() < deadline, "resume never finished"
                time.sleep(0.25)
            assert any("recovered 1" in line for line in second.lines)
            assert view["state"] == "done"
            assert view["resumed"] is True
            assert view["result"]["ok"] is True
            payload = view["result"]["result"]
            assert payload["kind"] == "kstar"
            assert payload["resumed_rungs"] >= 1
            assert payload["selected_k_star"] is not None
        finally:
            second.kill9()
