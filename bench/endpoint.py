"""Text-completion endpoint with a fixed injected latency, for the benchmark.

It speaks the HTTP backend's wire contract and answers with the stub
backend's text, so a run against it must write the same artifacts as a
stub run of the same seed. It counts requests and accepted TCP
connections, which shows how many connections a client opens per call.

Run as a script it serves on an ephemeral loopback port, prints
``port <n>`` once it listens, then reads commands from stdin:
``stats`` prints ``{"requests": .., "connections": ..}`` and ``reset``
zeroes both counts. End of input shuts it down. :class:`LatencyEndpoint`
starts and stops such a process.
"""
from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Generous: a cold interpreter import can be slow on a loaded machine.
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 10.0


class _CountingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, backend, latency_s: float):
        super().__init__(address, _Handler)
        self.backend = backend
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "connections": self.connections}

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.connections = 0


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.1 keeps connections open, so a client that reuses them shows
    # fewer connections than requests.
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        server = self.server
        with server.lock:
            server.requests += 1
        length = int(self.headers.get("Content-Length", 0))
        prompt = json.loads(self.rfile.read(length))["prompt"]
        time.sleep(server.latency_s)
        if self.path == "/generate":
            text = server.backend.generate(prompt, None)
        elif self.path == "/translate":
            text = server.backend.translate(prompt, None)
        else:
            self.send_error(404)
            return
        payload = json.dumps({"text": text}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def serve(seed: int, latency_ms: float) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from biaslex.generation import StubBackend

    server = _CountingServer(
        ("127.0.0.1", 0), StubBackend(seed=seed), latency_ms / 1000.0
    )
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        print(f"port {server.server_port}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(server.stats()), flush=True)
            elif command == "reset":
                server.reset()
                print("ok", flush=True)
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


class LatencyEndpoint:
    """A :func:`serve` process; use as a context manager."""

    def __init__(self, seed: int, latency_ms: float):
        self._process = subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--seed",
                str(seed),
                "--latency-ms",
                str(latency_ms),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self._read_line(_START_TIMEOUT_S)
            if not line.startswith("port "):
                raise RuntimeError(f"endpoint did not start: {line!r}")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        except BaseException:
            self.close()
            raise

    def _read_line(self, timeout: float) -> str:
        result: list[str] = []
        reader = threading.Thread(
            target=lambda: result.append(self._process.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout)
        if not result:
            raise RuntimeError("endpoint did not answer in time")
        return result[0].strip()

    def _command(self, command: str) -> str:
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()
        return self._read_line(_STOP_TIMEOUT_S)

    def stats(self) -> dict:
        return json.loads(self._command("stats"))

    def reset(self) -> None:
        self._command("reset")

    def close(self) -> None:
        """End of input stops the server; kill it if it does not stop."""
        try:
            self._process.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self._process.wait(_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> "LatencyEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args()
    serve(args.seed, args.latency_ms)
