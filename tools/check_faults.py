#!/usr/bin/env python3
"""Hostile-input sweep for the vgod crash-proofing layer.

Complements check_serve.py (the happy path) by attacking every untrusted
input surface documented in docs/ROBUSTNESS.md and asserting the process
degrades instead of dying:

  1. A live vgod_serve takes malformed JSON, bad and oversized
     Content-Length headers, unknown paths, wrong methods, and
     out-of-range node ids -- every attack must get a clean 4xx, the
     server must answer /healthz afterwards, and the serve.errors.*
     counters must move.
  2. With VGOD_FAULTS=serve.score=nan the detector emits NaN scores;
     /score must answer 500 (serve.errors.nonfinite_scores moves), the
     server must stay alive, and SIGTERM must still drain cleanly.
  3. Startup against a truncated bundle, an injected bundle short-read
     (VGOD_FAULTS=bundle.read=fail@2), an injected dataset read failure
     (VGOD_FAULTS=dataset.read=fail), bad engine sizes (--threads=0,
     --max-queue=0) and malformed numbers (--threads=two, --port=eighty,
     --max-queue=8x, --monitor-interval=fast) must exit 1 with an error
     message -- not die on a signal, and not read the number as 0.
  4. vgod_cli eval against garbage and NaN score files, and vgod_cli
     detect with a malformed number (--top=ten), must exit 1 with a clean
     error.

Run directly (`python3 tools/check_faults.py --cli build/tools/vgod_cli
--serve build/tools/vgod_serve`) or via ctest (check_faults, label
`faults`).
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

ERRORS = []

BANNER_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


def fail(message):
    ERRORS.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def check(condition, message):
    if not condition:
        fail(message)
    return condition


def run(cmd, env_extra=None, expect_code=0):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    print("+", " ".join(str(c) for c in cmd))
    proc = subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, env=env,
        timeout=480)
    if proc.returncode != expect_code:
        fail(f"expected exit {expect_code}, got {proc.returncode}: "
             f"{' '.join(map(str, cmd))}\n"
             f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}")
    return proc


def http(port, method, path, body=None, timeout=30):
    """Returns (status, parsed-json-or-None)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body.encode() if body is not None else None,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read().decode())
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read().decode())
        except Exception:
            payload = None
        return error.code, payload


def raw_request(port, payload, timeout=30):
    """Sends raw bytes and returns the leading HTTP status code, or None."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(payload.encode())
        response = b""
        try:
            while chunk := s.recv(4096):
                response += chunk
        except socket.timeout:
            pass
    match = re.match(rb"HTTP/1\.1 (\d{3})", response)
    return int(match.group(1)) if match else None


def start_server(serve_bin, bundle, graph, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [str(serve_bin), f"--bundle={bundle}", f"--graph={graph}",
         "--port=0", "--threads=2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    deadline = time.monotonic() + 60
    port = None
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = BANNER_RE.search(line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        fail(f"vgod_serve never printed its port; output: {''.join(lines)}")
    return proc, port


def stop_server(proc, expect_drain=True):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("vgod_serve did not exit within 60s of SIGTERM")
        return
    check(proc.returncode == 0,
          f"vgod_serve exited {proc.returncode} after SIGTERM")
    if expect_drain:
        tail = proc.stdout.read()
        check("drained and stopped" in tail,
              f"vgod_serve did not report a clean drain; tail: {tail[-500:]}")


def counters(port):
    status, metrics = http(port, "GET", "/metrics")
    if not check(status == 200 and isinstance(metrics, dict),
                 f"/metrics unavailable during the sweep ({status})"):
        return {}
    return metrics.get("counters", {})


def alive(port, context):
    status, health = http(port, "GET", "/healthz")
    return check(status == 200 and health and health.get("status") == "ok",
                 f"server not healthy after {context} (status {status})")


def build_artifacts(cli, workdir):
    graph = workdir / "faults.graph"
    bundle = workdir / "faults.vgodb"
    scores = workdir / "faults_scores.tsv"
    run([cli, "generate", "--dataset=cora", "--scale=0.1", "--seed=11",
         "--inject=standard", f"--output={graph}"])
    run([cli, "detect", f"--graph={graph}", "--detector=VBM",
         "--epoch-scale=0.05", "--seed=11", f"--save-bundle={bundle}",
         f"--output={scores}"])
    check(bundle.exists(), "detect --save-bundle wrote no bundle")
    return graph, bundle, scores


def check_hostile_http_sweep(serve_bin, bundle, graph):
    proc, port = start_server(serve_bin, bundle, graph)
    if port is None:
        return
    try:
        before = counters(port)

        attacks = [
            # (description, expected status range, request thunk)
            ("non-JSON body", (400, 400),
             lambda: http(port, "POST", "/score", "this is not json")[0]),
            ("wrong nodes type", (400, 400),
             lambda: http(port, "POST", "/score", '{"nodes":"zero"}')[0]),
            ("out-of-range node", (400, 400),
             lambda: http(port, "POST", "/score", '{"nodes":[999999]}')[0]),
            ("empty body keys", (400, 400),
             lambda: http(port, "POST", "/score", "{}")[0]),
            ("unknown path", (404, 404),
             lambda: http(port, "GET", "/nope")[0]),
            ("wrong method", (405, 405),
             lambda: http(port, "PUT", "/healthz", "{}")[0]),
            ("malformed content-length", (400, 400),
             lambda: raw_request(
                 port, "POST /score HTTP/1.1\r\nHost: x\r\n"
                       "Connection: close\r\nContent-Length: 12abc\r\n\r\n")),
            ("negative content-length", (400, 400),
             lambda: raw_request(
                 port, "POST /score HTTP/1.1\r\nHost: x\r\n"
                       "Connection: close\r\nContent-Length: -1\r\n\r\n")),
            ("oversized content-length", (413, 413),
             lambda: raw_request(
                 port, "POST /score HTTP/1.1\r\nHost: x\r\n"
                       "Connection: close\r\n"
                       "Content-Length: 99999999999\r\n\r\n")),
            ("overflowing content-length", (413, 413),
             lambda: raw_request(
                 port, "POST /score HTTP/1.1\r\nHost: x\r\nConnection: close"
                       "\r\nContent-Length: 9903520314283042199192993792"
                       "\r\n\r\n")),
            ("garbage request line", (400, 400),
             lambda: raw_request(port, "garbage\r\n\r\n")),
        ]
        for description, (low, high), attack in attacks:
            status = attack()
            check(status is not None and low <= status <= high,
                  f"{description}: expected {low}..{high}, got {status}")
            # The cardinal rule: no attack takes the server down.
            if not alive(port, description):
                return

        after = counters(port)

        def moved(name, at_least=1):
            delta = after.get(name, 0) - before.get(name, 0)
            check(delta >= at_least,
                  f"{name} moved by {delta}, expected >= {at_least}")

        moved("serve.errors.bad_request", 6)
        moved("serve.errors.not_found")
        moved("serve.errors.method_not_allowed")
        moved("serve.errors.payload_too_large", 2)

        # A good request still works after the whole sweep.
        status, payload = http(port, "POST", "/score", '{"nodes":[0,1]}')
        check(status == 200 and payload and len(payload.get("scores", [])) == 2,
              f"good request after the sweep failed ({status})")
    finally:
        stop_server(proc)


def check_injected_nan_scores(serve_bin, bundle, graph):
    proc, port = start_server(serve_bin, bundle, graph,
                              env_extra={"VGOD_FAULTS": "serve.score=nan"})
    if port is None:
        return
    try:
        before = counters(port)
        status, payload = http(port, "POST", "/score", '{"nodes":[0,1]}')
        check(status == 500,
              f"injected NaN scores returned {status}, expected 500")
        check(payload and "unusable" in payload.get("error", ""),
              f"500 payload does not explain the NaN rejection: {payload}")
        if not alive(port, "injected NaN scores"):
            return
        after = counters(port)
        check(after.get("serve.errors.nonfinite_scores", 0) >
              before.get("serve.errors.nonfinite_scores", 0),
              "serve.errors.nonfinite_scores did not move")
        check(after.get("serve.errors.internal", 0) >
              before.get("serve.errors.internal", 0),
              "serve.errors.internal did not move")
    finally:
        stop_server(proc)


def serve_must_exit_1(serve_bin, bundle, graph, env_extra, context,
                      extra_args=(), expect="error:"):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [str(serve_bin), f"--bundle={bundle}", f"--graph={graph}",
         "--port=0", *extra_args],
        capture_output=True, text=True, env=env, timeout=120)
    check(proc.returncode == 1,
          f"{context}: vgod_serve exited {proc.returncode}, expected a "
          f"clean error exit 1 (negative = killed by signal)")
    output = proc.stdout + proc.stderr
    check("error:" in output and expect in output,
          f"{context}: no '{expect}' error message on exit; "
          f"output: {output[-500:]}")


def check_startup_failures(serve_bin, bundle, graph, workdir):
    truncated = workdir / "truncated.vgodb"
    truncated.write_bytes(bundle.read_bytes()[: bundle.stat().st_size * 2 // 3])
    serve_must_exit_1(serve_bin, truncated, graph, None, "truncated bundle")
    serve_must_exit_1(serve_bin, bundle, graph,
                      {"VGOD_FAULTS": "bundle.read=fail@2"},
                      "injected bundle short-read")
    serve_must_exit_1(serve_bin, bundle, graph,
                      {"VGOD_FAULTS": "dataset.read=fail"},
                      "injected dataset read failure")
    # Each must be refused, not a CHECK abort (exit 134).
    for flag in ("--threads=0", "--max-queue=0"):
        serve_must_exit_1(serve_bin, bundle, graph, None, flag, [flag])
    # Malformed numbers are refused by the parser, not read as 0 (which
    # used to serve "--port=eighty" on an ephemeral port).
    for flag in ("--threads=two", "--port=eighty", "--max-queue=8x",
                 "--monitor-interval=fast"):
        serve_must_exit_1(serve_bin, bundle, graph, None, flag, [flag],
                          "invalid value for " + flag.replace("=", ": ", 1))


def check_cli_malformed_numbers(cli, graph):
    # "--top=ten" used to print "top-0 nodes" and exit 0.
    for flag in ("--top=ten", "--epoch-scale=0.1.2"):
        proc = run([cli, "detect", f"--graph={graph}", "--detector=Deg",
                    flag], expect_code=1)
        want = "invalid value for " + flag.replace("=", ": ", 1)
        check(want in proc.stdout + proc.stderr,
              f"vgod_cli detect {flag}: no '{want}' error")


def check_cli_eval_hardening(cli, graph, workdir):
    garbage = workdir / "garbage_scores.tsv"
    garbage.write_text("0\t0.5\nthis is not a score row\n")
    proc = run([cli, "eval", f"--graph={graph}", f"--scores={garbage}"],
               expect_code=1)
    check("malformed score file" in proc.stdout + proc.stderr,
          "garbage score file: no clean error message")

    # "nan" either parses to a NaN score (rejected by the non-finite
    # check) or fails float extraction (rejected as malformed); both must
    # be a clean exit-1 error, never a confident wrong AUC or a crash.
    nans = workdir / "nan_scores.tsv"
    nans.write_text("0\t0.5\n1\tnan\n")
    proc = run([cli, "eval", f"--graph={graph}", f"--scores={nans}"],
               expect_code=1)
    output = proc.stdout + proc.stderr
    check("non-finite" in output or "malformed score file" in output,
          "NaN score file: no clean error message")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to vgod_cli")
    parser.add_argument("--serve", required=True, help="path to vgod_serve")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vgod_faults_check_") as tmp:
        workdir = Path(tmp)
        cli, serve_bin = Path(args.cli), Path(args.serve)
        graph, bundle, _ = build_artifacts(cli, workdir)
        if not ERRORS:
            check_hostile_http_sweep(serve_bin, bundle, graph)
            check_injected_nan_scores(serve_bin, bundle, graph)
            check_startup_failures(serve_bin, bundle, graph, workdir)
            check_cli_eval_hardening(cli, graph, workdir)
            check_cli_malformed_numbers(cli, graph)

    if ERRORS:
        print(f"\ncheck_faults: {len(ERRORS)} failure(s)", file=sys.stderr)
        return 1
    print("check_faults: all crash-proofing checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
