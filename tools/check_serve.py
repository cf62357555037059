#!/usr/bin/env python3
"""End-to-end validator for the vgod serving stack.

Drives the full deployment loop documented in docs/SERVING.md:

  1. `vgod_cli generate` builds a small injected graph.
  2. `vgod_cli detect --save-bundle` trains a detector and exports a model
     bundle (plus a per-node score file, the ground truth for step 4).
  3. `vgod_serve` boots on an ephemeral port; the banner is parsed for the
     bound port.
  4. Concurrent HTTP clients hit POST /score; responses must match the
     training-time scores, and the static graph must have been scored
     exactly once (serve.engine.batches_flushed == 1: every lookup reads
     the one cached score vector). GET /healthz and GET /metrics are
     validated (the serve.* counters and latency histograms must have
     moved), and a malformed request must produce a 4xx, not a crash.
  5. Request-scoped observability: every /score response's request_id
     must appear in the VGOD_ACCESS_LOG JSON log (one well-formed line
     per request, ids strictly increasing), the serve.stage.* histograms
     must be populated with sums consistent with end-to-end latency,
     GET /metrics?format=prometheus must pass exposition-format rules
     and agree with the JSON export, and GET /debug/slow must return
     stage breakdowns for the slowest requests.
  6. Connection-churn sweep: hundreds of short-lived connections must
     leave the server's thread count and fd table at baseline, and the
     serve.transport.open_connections gauge must drain back to zero
     (the epoll reactor never spawns per-connection threads).
  7. SIGTERM must drain and exit 0.
  8. `serve_loadgen --json` runs two-plus engine thread counts; the JSON
     report must carry sane p50/p99/throughput numbers, one Score() call
     per configuration, and per-stage quantiles.
  9. The retired micro-batching flags (--max-batch, --max-delay-us) must
     be refused as unknown options.

Run directly (`python3 tools/check_serve.py --cli build/tools/vgod_cli
--serve build/tools/vgod_serve --loadgen build/bench/serve_loadgen`) or
via ctest (registered as check_serve).
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
import threading
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


def run(cmd, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    print("+", " ".join(str(c) for c in cmd))
    proc = subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, env=env,
        timeout=480)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}\n"
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


def http_text(port, path, timeout=30):
    """Returns (status, content-type, body-text) without JSON parsing."""
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return (reply.status, reply.headers.get("Content-Type", ""),
                    reply.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), ""


def start_server(serve_bin, bundle, graph, access_log=None):
    env = dict(os.environ)
    if access_log is not None:
        env["VGOD_ACCESS_LOG"] = str(access_log)
    proc = subprocess.Popen(
        [str(serve_bin), f"--bundle={bundle}", f"--graph={graph}",
         "--port=0", "--threads=2",
         "--slow-ring=8"],
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


PROM_SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$')
PROM_LE_RE = re.compile(r'^\{le="([^"]*)"\}$')


def check_prometheus(port, json_metrics):
    """Validates GET /metrics?format=prometheus: exposition-format rules
    (promtool-style) and agreement with the JSON export."""
    status, ctype, _ = http_text(port, "/metrics?format=xml")
    check(status == 400, f"unknown metrics format returned {status}")

    status, ctype, text = http_text(port, "/metrics?format=prometheus")
    if not check(status == 200,
                 f"/metrics?format=prometheus returned {status}"):
        return
    check(ctype.startswith("text/plain") and "version=0.0.4" in ctype,
          f"prometheus content type is {ctype!r}")

    types = {}
    samples = {}
    buckets = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if check(len(parts) == 4 and
                     parts[3] in ("counter", "gauge", "histogram"),
                     f"malformed TYPE line: {line}"):
                types[parts[2]] = parts[3]
            continue
        match = PROM_SAMPLE_RE.match(line)
        if not check(match, f"unparsable exposition line: {line!r}"):
            continue
        name, labels, value = match.groups()
        le = PROM_LE_RE.match(labels) if labels else None
        if le is not None:
            buckets.setdefault(name, []).append((le.group(1), float(value)))
        else:
            # Labeled non-histogram samples (the build_info info gauge)
            # are keyed by bare name like everything else.
            samples[name] = float(value)

    # Every sample belongs to a declared metric family.
    for name in samples:
        base = re.sub(r"_(sum|count)$", "", name)
        check(name in types or base in types,
              f"sample {name} has no # TYPE declaration")

    # Histogram rules: cumulative non-decreasing buckets ending at +Inf,
    # with the +Inf bucket equal to _count.
    for name, series in buckets.items():
        base = re.sub(r"_bucket$", "", name)
        check(types.get(base) == "histogram",
              f"{name} series not declared as a histogram")
        values = [v for _, v in series]
        check(values == sorted(values),
              f"{name} buckets are not cumulative: {series}")
        check(series[-1][0] == "+Inf", f"{name} does not end at le=+Inf")
        count = samples.get(f"{base}_count")
        check(count is not None and count == series[-1][1],
              f"{name}: +Inf bucket {series[-1][1]} != _count {count}")
        check(f"{base}_sum" in samples, f"{base} has no _sum sample")

    # The two exports must agree on counters that only /score moves
    # (scrape-order-insensitive, unlike serve.http.requests).
    if isinstance(json_metrics, dict):
        for json_name in ("serve.requests.total", "serve.requests.completed"):
            want = json_metrics["counters"].get(json_name)
            prom_name = json_name.replace(".", "_")
            check(samples.get(prom_name) == want,
                  f"{prom_name} is {samples.get(prom_name)} in prometheus "
                  f"but {json_name} is {want} in JSON")
        for stage in ("queue_wait", "score"):
            prom = f"serve_stage_{stage}_seconds_count"
            check(samples.get(prom, 0) >= 4,
                  f"{prom} missing or empty in prometheus export")

    # Provenance satellites (docs/OBSERVABILITY.md): the build_info
    # info-gauge is a constant 1 with labels, and the process start time
    # is a plausible unix timestamp (after 2020-01-01, not in the future).
    check(samples.get("build_info") == 1.0,
          f"build_info gauge is {samples.get('build_info')}, want 1")
    start = samples.get("process_start_time_seconds")
    check(start is not None and 1577836800 < start <= time.time() + 1,
          f"process_start_time_seconds implausible: {start}")


def proc_threads(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def proc_fds(pid):
    return len(os.listdir(f"/proc/{pid}/fd"))


def check_connection_churn(proc, port, connections=200):
    """Transport leak gate: hundreds of short-lived connections must leave
    the server's thread count and fd table at baseline, and the
    serve.transport.open_connections gauge must drain back to zero. A
    thread-per-connection transport would show the thread count spiking
    with the sweep; the epoll reactor keeps it flat. (The /metrics poll
    holds a connection of its own while it runs, so the fd and gauge
    checks tolerate a single straggler.)"""
    pid = proc.pid
    threads_before = proc_threads(pid)
    fds_before = proc_fds(pid)
    errors = 0
    for _ in range(connections):
        try:
            with socket.create_connection(
                    ("127.0.0.1", port), timeout=10) as conn:
                conn.sendall(b"GET /healthz/live HTTP/1.1\r\n"
                             b"host: localhost\r\nconnection: close\r\n\r\n")
                reply = b""
                while True:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
                if not reply.startswith(b"HTTP/1.1 200"):
                    errors += 1
        except OSError:
            errors += 1
    check(errors == 0, f"churn sweep: {errors}/{connections} short-lived "
                       f"connections failed")
    deadline = time.monotonic() + 10
    gauge = threads_after = fds_after = None
    while time.monotonic() < deadline:
        threads_after = proc_threads(pid)
        fds_after = proc_fds(pid)
        _, metrics = http(port, "GET", "/metrics")
        gauge = (metrics or {}).get("gauges", {}).get(
            "serve.transport.open_connections")
        if (threads_after == threads_before and
                fds_after <= fds_before + 1 and
                gauge is not None and gauge <= 1):
            break
        time.sleep(0.05)
    check(threads_after == threads_before,
          f"churn sweep leaked threads: {threads_before} -> {threads_after}")
    check(fds_after is not None and fds_after <= fds_before + 1,
          f"churn sweep leaked fds: {fds_before} -> {fds_after}")
    check(gauge is not None and gauge <= 1,
          f"serve.transport.open_connections did not drain after the churn "
          f"sweep: {gauge}")


def check_access_log(access_log, seen_request_ids):
    """The access log must hold one well-formed JSON line per request with
    strictly increasing ids, covering every /score response we saw."""
    if not check(access_log.exists(), "VGOD_ACCESS_LOG wrote no file"):
        return
    records = []
    for index, line in enumerate(access_log.read_text().splitlines(), 1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            fail(f"access log line {index} is not JSON ({error}): {line!r}")
    if not check(records, "access log is empty"):
        return
    ids = [r.get("id", 0) for r in records]
    check(all(i > 0 for i in ids), "access log has non-positive request ids")
    # Ids come from one monotonic counter, so they are unique; concurrent
    # requests may *complete* (and log) out of order, so file order is only
    # checked for uniqueness, not sortedness.
    check(len(set(ids)) == len(ids),
          f"access log request ids are not unique: {sorted(ids)}")
    check(max(ids) - min(ids) + 1 >= len(ids),
          "access log ids are denser than a monotonic counter allows")
    required = {"id", "path", "status", "nodes", "shed", "error_class",
                "parse_us", "queue_wait_us", "score_us", "serialize_us",
                "total_us", "tensor_peak_bytes"}
    for record in records:
        check(required <= set(record),
              f"access log record lacks fields: {record}")
    logged = set(ids)
    for request_id in seen_request_ids:
        check(request_id in logged,
              f"/score response request_id {request_id} never appeared "
              f"in the access log")
    scored = [r for r in records
              if r.get("path") == "/score" and r.get("status") == 200]
    check(len(scored) >= len(seen_request_ids),
          "access log has fewer successful /score lines than clients saw")
    # Lookups answered from the score cache have score_us 0; the ones that
    # waited for the graph's one refresh carry its time.
    check(any(r.get("score_us", 0) > 0 for r in scored),
          "no successful /score line carries a score stage")
    for record in scored:
        check(record.get("total_us", 0) > 0,
              f"successful /score line has no total latency: {record}")
        stage_sum = sum(record.get(k, 0) for k in
                        ("parse_us", "queue_wait_us", "score_us",
                         "serialize_us"))
        check(stage_sum <= record.get("total_us", 0) + 1000,
              f"stage micros exceed total latency: {record}")


def check_serving(cli, serve_bin, workdir):
    graph = workdir / "serve.graph"
    bundle = workdir / "model.vgodb"
    scores = workdir / "scores.tsv"

    run([cli, "generate", "--dataset=cora", "--scale=0.1", "--seed=7",
         "--inject=standard", f"--output={graph}"])
    run([cli, "detect", f"--graph={graph}", "--detector=VBM",
         "--epoch-scale=0.05", "--seed=7", f"--save-bundle={bundle}",
         f"--output={scores}"])
    if not check(bundle.exists(), "detect --save-bundle wrote no bundle"):
        return
    with open(bundle, "rb") as f:
        check(f.read(8) == b"VGODBNDL", "bundle file lacks the VGODBNDL magic")

    expected = {}
    for line in scores.read_text().splitlines():
        node, value = line.split("\t")
        expected[int(node)] = float(value)
    check(len(expected) > 0, "detect wrote an empty score file")

    access_log = workdir / "access.jsonl"
    proc, port = start_server(serve_bin, bundle, graph, access_log)
    if port is None:
        return
    seen_request_ids = []
    try:
        status, health = http(port, "GET", "/healthz")
        check(status == 200, f"/healthz returned {status}")
        check(health and health.get("status") == "ok",
              f"/healthz payload unexpected: {health}")
        check(health and health.get("detector") == "VBM",
              f"/healthz reported detector {health and health.get('detector')}")
        check(health and health.get("nodes") == len(expected),
              "/healthz node count disagrees with the score file")

        # Concurrent clients: served scores must match the training-time
        # score file (written with %g at ~6 significant digits).
        nodes = sorted(expected)[:8]
        results = [None] * 4

        def client(slot):
            results[slot] = http(
                port, "POST", "/score", json.dumps({"nodes": nodes}))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for slot, reply in enumerate(results):
            if not check(reply is not None and reply[0] == 200,
                         f"concurrent client {slot} failed: {reply}"):
                continue
            payload = reply[1]
            if not check(payload and payload.get("nodes") == nodes,
                         f"client {slot}: /score echoed wrong nodes"):
                continue
            if check(payload.get("request_id", 0) > 0,
                     f"client {slot}: /score response carries no request_id"):
                seen_request_ids.append(payload["request_id"])
            for node, got in zip(payload["nodes"], payload["scores"]):
                want = expected[node]
                tolerance = max(1e-9, abs(want) * 1e-4)
                check(abs(got - want) <= tolerance,
                      f"served score for node {node} is {got}, "
                      f"training-time score was {want}")

        # Malformed requests degrade to errors, not crashes.
        status, _ = http(port, "POST", "/score", '{"nodes":[999999]}')
        check(400 <= status < 500, f"out-of-range node returned {status}")
        status, _ = http(port, "POST", "/score", "this is not json")
        check(400 <= status < 500, f"non-JSON body returned {status}")
        status, _ = http(port, "GET", "/nope")
        check(status == 404, f"unknown path returned {status}")

        status, metrics = http(port, "GET", "/metrics")
        check(status == 200, f"/metrics returned {status}")
        if check(isinstance(metrics, dict) and
                 {"counters", "gauges", "histograms"} <= set(metrics),
                 f"/metrics envelope malformed: {metrics and list(metrics)}"):
            counters = metrics["counters"]
            check(counters.get("serve.requests.total", 0) >= 4,
                  "serve.requests.total did not count the clients")
            check(counters.get("serve.requests.completed", 0) >= 4,
                  "serve.requests.completed did not move")
            check(counters.get("serve.http.requests", 0) >= 4,
                  "serve.http.requests did not move")
            check("serve.queue.depth" in metrics["gauges"],
                  "serve.queue.depth gauge missing")
            latency = metrics["histograms"].get(
                "serve.request.latency.seconds")
            check(latency is not None and latency.get("count", 0) >= 4,
                  "serve.request.latency.seconds histogram did not move")
            # Score once per graph version: the static graph's lookups all
            # read one cached score vector.
            flushed = metrics["gauges"].get("serve.engine.batches_flushed")
            check(flushed == 1,
                  f"static graph scored {flushed} times, want exactly 1")

            # Stage histograms: every stage populated, and the engine-side
            # stages decompose (a subset of) the end-to-end latency.
            stage_sum = 0.0
            for stage in ("queue_wait", "score", "parse", "serialize"):
                hist = metrics["histograms"].get(
                    f"serve.stage.{stage}.seconds")
                if check(hist is not None and hist.get("count", 0) >= 4,
                         f"serve.stage.{stage}.seconds did not move"):
                    if stage in ("queue_wait", "score"):
                        stage_sum += hist.get("sum", 0.0)
            latency_sum = latency.get("sum", 0.0) if latency else 0.0
            check(stage_sum <= latency_sum * 1.01 + 1e-6,
                  f"engine stage sums ({stage_sum}) exceed end-to-end "
                  f"latency sum ({latency_sum})")

        check_prometheus(port, metrics)

        status, slow = http(port, "GET", "/debug/slow")
        check(status == 200, f"/debug/slow returned {status}")
        if check(isinstance(slow, dict) and slow.get("count", 0) >= 1,
                 f"/debug/slow returned no entries: {slow}"):
            entries = slow.get("slowest", [])
            totals = [e.get("total_us", 0) for e in entries]
            check(totals == sorted(totals, reverse=True),
                  "/debug/slow entries are not slowest-first")
            for entry in entries:
                check(entry.get("id", 0) > 0,
                      "/debug/slow entry lacks a request id")
                check(all(k in entry for k in
                          ("parse_us", "queue_wait_us", "score_us",
                           "serialize_us", "total_us")),
                      f"/debug/slow entry lacks stage fields: {entry}")

        check_connection_churn(proc, port)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("vgod_serve did not exit within 60s of SIGTERM")
    check(proc.returncode == 0,
          f"vgod_serve exited {proc.returncode} after SIGTERM")
    tail = proc.stdout.read()
    check("drained and stopped" in tail,
          f"vgod_serve did not report a clean drain; tail: {tail[-500:]}")
    check_access_log(access_log, seen_request_ids)


def check_retired_flags(serve_bin):
    """The batching knobs were removed; a deployment still passing them
    must fail loudly instead of silently running with a changed config."""
    for flag in ("--max-batch=8", "--max-delay-us=1000"):
        proc = subprocess.run([str(serve_bin), "--bundle=x", "--graph=y", flag],
                              capture_output=True, text=True, timeout=60)
        check(proc.returncode != 0 and "unknown option" in proc.stderr,
              f"vgod_serve {flag} exited {proc.returncode}: "
              f"{proc.stderr[-300:]}")


def check_loadgen(loadgen, workdir):
    report_path = workdir / "loadgen.json"
    run([loadgen, "--clients=4", "--requests=8", f"--json={report_path}"],
        env_extra={"VGOD_BENCH_SCALE": "0.1",
                   "VGOD_BENCH_EPOCH_SCALE": "0.05"})
    if not check(report_path.exists(), "serve_loadgen wrote no JSON report"):
        return
    report = json.loads(report_path.read_text())
    check(report.get("benchmark") == "serve_loadgen",
          "loadgen report is missing its benchmark tag")
    configs = report.get("configs", [])
    if not check(len(configs) >= 2,
                 f"loadgen must cover >= 2 configs, got {len(configs)}"):
        return
    check(len({c.get("threads") for c in configs}) == len(configs),
          "loadgen must vary the thread count")
    for config in configs:
        tag = f"t{config.get('threads')}"
        check(config.get("requests", 0) > 0, f"{tag}: no requests recorded")
        check(config.get("score_calls") == 1,
              f"{tag}: {config.get('score_calls')} Score() calls on a "
              f"static graph, want exactly 1")
        p50, p99 = config.get("p50_ms", -1), config.get("p99_ms", -1)
        check(0 < p50 <= p99, f"{tag}: bad latency quantiles p50={p50} "
                              f"p99={p99}")
        check(config.get("throughput_rps", 0) > 0, f"{tag}: zero throughput")
        check(config.get("engine_p50_ms", -1) >= 0,
              f"{tag}: engine histogram p50 missing")
        stages = config.get("stages")
        if check(isinstance(stages, dict) and
                 {"queue_wait", "score"} <= set(stages),
                 f"{tag}: report lacks per-stage quantiles"):
            for stage_name, quantiles in stages.items():
                s50 = quantiles.get("p50_ms", -1)
                s99 = quantiles.get("p99_ms", -1)
                check(0 <= s50 <= s99,
                      f"{tag}: {stage_name} quantiles bad p50={s50} p99={s99}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to vgod_cli")
    parser.add_argument("--serve", required=True, help="path to vgod_serve")
    parser.add_argument("--loadgen", required=True,
                        help="path to serve_loadgen")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vgod_serve_check_") as tmp:
        workdir = Path(tmp)
        check_serving(Path(args.cli), Path(args.serve), workdir)
        check_retired_flags(Path(args.serve))
        check_loadgen(Path(args.loadgen), workdir)

    if ERRORS:
        print(f"\ncheck_serve: {len(ERRORS)} failure(s)", file=sys.stderr)
        return 1
    print("check_serve: all serving checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
