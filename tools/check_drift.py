#!/usr/bin/env python3
"""End-to-end validator for model-quality observability
(docs/OBSERVABILITY.md "Model-quality observability").

Drives a live `vgod_serve --streaming` with tight drift/monitor knobs:

  1. `vgod_cli generate` + `vgod_cli detect --save-bundle` produce a graph
     and a fingerprinted bundle; a local webhook receiver (which 500s the
     first delivery to exercise retry) and a raw-socket SSE subscriber to
     GET /events come up alongside the server.
  2. /debug/drift must report status "ok" with the restored baseline
     quantiles; /debug/alerts must list the configured rules (inactive),
     including metric_available=false for a rule on a missing metric.
  3. Stable phase: scoring every node keeps drift.score.psi under the
     alert threshold — the live window reproduces the training scores.
  4. Drift phase: update_attributes ingest events blast a third of the
     nodes; rescoring must push drift.score.psi over 0.25, the
     "score-psi-high" rule must fire, and the firing transition must
     arrive over BOTH the webhook (despite the injected 500) and SSE.
     The ingest must also change the watchlist and publish a
     "watchlist" SSE event, and event_mix/degree drift must be live.
  5. Quiet phase: with scoring stopped the window drains below
     min-count, PSI reports 0, and the rule resolves — transition again
     observed on webhook and SSE.
  6. A bundle WITHOUT a fingerprint (as written before bundles carried
     one: a `--save-bundle` output with the config's "fingerprint" key
     dropped and the checksum re-sealed) must serve with /debug/drift
     status "baseline_missing", drift.baseline.present 0, and working
     /score.
  7. Hostile --alert-rules files (bad JSON, unknown comparator, negative
     duration, duplicate names, missing file) must exit nonzero with a
     diagnostic, never a crash loop or a listening server.
  8. SIGTERM with the SSE connection still open must drain and exit 0.

Run directly (`python3 tools/check_drift.py --cli build/tools/vgod_cli
--serve build/tools/vgod_serve`) or via ctest (registered as check_drift).
"""

import argparse
import json
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, reply.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, ""


def start_server(serve_bin, flags):
    proc = subprocess.Popen(
        [str(serve_bin)] + flags,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
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


def stop_server(proc, name):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{name} did not exit within 60s of SIGTERM")
        return
    check(proc.returncode == 0, f"{name} exited {proc.returncode}")


class WebhookReceiver:
    """Records every POSTed alert payload; the first delivery gets a 500
    so a correct notifier must retry it (the payload then appears twice,
    once rejected and once accepted)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.deliveries = []  # (status_sent, parsed_json)
        receiver = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length).decode()
                try:
                    payload = json.loads(body)
                except Exception:
                    payload = body
                with receiver.lock:
                    status = 500 if not receiver.deliveries else 200
                    receiver.deliveries.append((status, payload))
                self.send_response(status)
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"{}")

            def log_message(self, *_):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def snapshot(self):
        with self.lock:
            return list(self.deliveries)

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


class SseClient:
    """Raw-socket subscriber to GET /events: collects (event, data)
    frames and keepalive comments from the unframed SSE byte stream."""

    def __init__(self, port):
        self.lock = threading.Lock()
        self.events = []  # (event_type, parsed_data)
        self.keepalives = 0
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.sendall(
            b"GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Accept: text/event-stream\r\n\r\n")
        self.buffer = b""
        self.headers = self._read_headers()
        self.thread = threading.Thread(target=self._read_loop, daemon=True)
        self.thread.start()

    def _read_headers(self):
        deadline = time.monotonic() + 20
        while b"\r\n\r\n" not in self.buffer:
            if time.monotonic() > deadline:
                fail("SSE response headers never arrived")
                return ""
            chunk = self.sock.recv(4096)
            if not chunk:
                fail("SSE connection closed before headers")
                return ""
            self.buffer += chunk
        headers, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        return headers.decode(errors="replace")

    def _read_loop(self):
        self.sock.settimeout(1.0)
        while True:
            try:
                chunk = self.sock.recv(4096)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                return
            self.buffer += chunk
            self._drain_frames()

    def _drain_frames(self):
        while b"\n\n" in self.buffer:
            frame, _, self.buffer = self.buffer.partition(b"\n\n")
            event_type, data = None, None
            for line in frame.decode(errors="replace").splitlines():
                if line.startswith(":"):
                    with self.lock:
                        self.keepalives += 1
                elif line.startswith("event: "):
                    event_type = line[len("event: "):]
                elif line.startswith("data: "):
                    data = line[len("data: "):]
            if event_type is not None:
                try:
                    parsed = json.loads(data) if data else None
                except Exception:
                    parsed = data
                with self.lock:
                    self.events.append((event_type, parsed))

    def snapshot(self):
        with self.lock:
            return list(self.events), self.keepalives

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.2)
    fail(f"timed out after {timeout}s waiting for {what}")
    return None


def score_all(port, num_nodes, chunk=256):
    """Scores every node; the served scores feed the drift window."""
    for start in range(0, num_nodes, chunk):
        nodes = list(range(start, min(start + chunk, num_nodes)))
        status, reply = http(port, "POST", "/score",
                             json.dumps({"nodes": nodes}))
        if not check(status == 200 and reply and
                     len(reply.get("scores", [])) == len(nodes),
                     f"scoring nodes [{start}, ...) failed: {status}"):
            return False
    return True


def drift_gauges(port):
    status, metrics = http(port, "GET", "/metrics")
    if status != 200 or not isinstance(metrics, dict):
        return {}
    return metrics.get("gauges", {})


def alert_state(port, name):
    status, state = http(port, "GET", "/debug/alerts")
    if status != 200 or not isinstance(state, dict):
        return None
    for rule in state.get("rules", []):
        if rule.get("name") == name:
            return rule
    return None


def write_rules(workdir):
    rules = workdir / "alert_rules.json"
    rules.write_text(json.dumps({"rules": [
        {"name": "score-psi-high", "metric": "drift.score.psi",
         "op": ">", "threshold": 0.25, "for_seconds": 0},
        {"name": "ks-never", "metric": "drift.score.ks",
         "op": ">", "threshold": 2.0, "for_seconds": 0},
        {"name": "missing-metric", "metric": "no.such.metric",
         "op": ">", "threshold": 0.0, "for_seconds": 0},
    ]}))
    return rules


def check_initial_state(port, num_nodes):
    status, drift = http(port, "GET", "/debug/drift")
    if not check(status == 200 and isinstance(drift, dict),
                 f"/debug/drift returned {status}"):
        return
    check(drift.get("status") == "ok",
          f"fingerprinted bundle reports drift status {drift.get('status')}")
    check(drift.get("baseline_present") is True, "baseline_present not true")
    baseline = drift.get("baseline", {})
    check(baseline.get("num_nodes") == num_nodes,
          f"baseline num_nodes {baseline.get('num_nodes')} != {num_nodes}")
    scores = baseline.get("scores", {})
    check(isinstance(scores, dict) and "p50" in scores and
          scores.get("count", 0) == num_nodes,
          f"baseline score summary malformed: {scores}")

    status, alerts = http(port, "GET", "/debug/alerts")
    if not check(status == 200 and isinstance(alerts, dict),
                 f"/debug/alerts returned {status}"):
        return
    names = [r.get("name") for r in alerts.get("rules", [])]
    check(names == ["score-psi-high", "ks-never", "missing-metric"],
          f"/debug/alerts rule set is {names}")
    for rule in alerts.get("rules", []):
        check(rule.get("state") == "inactive",
              f"rule {rule.get('name')} started {rule.get('state')}")
    wait_for(lambda: (alert_state(port, "missing-metric") or {})
             .get("metric_available") is False or None,
             10, "missing-metric rule to sample its absent metric")
    missing = alert_state(port, "missing-metric")
    check(missing and missing.get("metric_available") is False,
          f"missing-metric rule claims its metric exists: {missing}")


def check_stable_phase(port, num_nodes):
    """The live window over freshly served scores must match the training
    fingerprint: PSI stays far below the 0.25 alert threshold."""
    def settled_psi():
        if not score_all(port, num_nodes):
            return "abort"
        gauges = drift_gauges(port)
        if gauges.get("drift.window.count", 0) >= 32:
            return gauges
        return None
    gauges = wait_for(settled_psi, 30, "drift window to fill")
    if not isinstance(gauges, dict):
        return
    check(gauges.get("drift.baseline.present") == 1,
          "drift.baseline.present gauge is not 1")
    psi = gauges.get("drift.score.psi")
    check(psi is not None and psi < 0.1,
          f"stable-phase PSI is {psi}, want < 0.1 (scores should match "
          f"the training fingerprint)")
    rule = alert_state(port, "score-psi-high")
    check(rule and rule.get("state") == "inactive",
          f"score-psi-high not inactive in stable phase: {rule}")


def inject_shift(port, num_nodes, dim):
    """Rewrites every node's attributes to a per-node random +/-20 vector.
    VBM scores are neighbor variance of L2-normalized embeddings, so
    scattering the embeddings inflates variance everywhere: the score
    distribution shifts (PSI crosses) and the top-k recomposes (the
    watchlist SSE event). Identical constant vectors would do the
    opposite — collapse neighbor variance toward zero."""
    events = []
    for node in range(num_nodes):
        rng = random.Random(node)
        events.append({"op": "update_attributes", "node": node,
                       "attributes": [rng.choice((-20.0, 20.0))
                                      for _ in range(dim)]})
    # Chunk to stay under --max-events per batch.
    for start in range(0, len(events), 64):
        status, reply = http(
            port, "POST", "/ingest",
            json.dumps({"events": events[start:start + 64]}))
        if not check(status == 200,
                     f"shift ingest returned {status}: {reply}"):
            return


def check_drift_phase(port, num_nodes, dim, webhook, sse):
    def psi_crossed():
        if not score_all(port, num_nodes):
            return "abort"
        gauges = drift_gauges(port)
        psi = gauges.get("drift.score.psi", 0.0)
        return gauges if psi > 0.25 else None
    gauges = wait_for(psi_crossed, 60, "drift.score.psi to cross 0.25")
    if not isinstance(gauges, dict):
        return
    check(gauges.get("drift.score.ks", 0) > 0.05,
          f"KS did not move with PSI: {gauges.get('drift.score.ks')}")

    # fired_total rather than a live "firing" state: once scoring stops
    # the window drains in window_buckets * rotate_seconds and the rule
    # may already have resolved by the time this poll lands.
    wait_for(
        lambda: (lambda r: r if r and r.get("fired_total", 0) >= 1
                 else None)(alert_state(port, "score-psi-high")),
        30, "score-psi-high to fire")

    # Structural drift channels are live: ingest traffic gives the event
    # mix a window-vs-lifetime distance, and the degree histogram of the
    # served graph is being compared against the fingerprint's. The event
    # mix only covers events since the last window rotation, so keep a
    # trickle of ingest traffic flowing while polling for it.
    def event_mix_live():
        http(port, "POST", "/ingest", json.dumps({"events": [
            {"op": "update_attributes", "node": 0,
             "attributes": [20.0] * dim}]}))
        status, drift = http(port, "GET", "/debug/drift")
        if status == 200 and drift.get("event_mix_distance", -1) >= 0:
            return drift
        return None
    drift = wait_for(event_mix_live, 20,
                     "event_mix_distance to become available")
    if drift:
        check(drift.get("degree_distance", -1) >= 0,
              f"degree_distance unavailable on a streaming server: "
              f"{drift.get('degree_distance')}")

    # The firing transition reaches the webhook — with the first delivery
    # 500ed, retry must re-deliver the same payload.
    deliveries = wait_for(
        lambda: (lambda d: d if any(
            status == 200 and isinstance(p, dict) and
            p.get("type") == "firing" and p.get("rule") == "score-psi-high"
            for status, p in d) else None)(webhook.snapshot()),
        30, "webhook to accept the firing transition")
    if deliveries:
        first_status, first_payload = deliveries[0]
        check(first_status == 500, "retry probe: first delivery was not 500ed")
        check(any(status == 200 and payload == first_payload
                  for status, payload in deliveries[1:]),
              f"500ed payload was never retried to success: {deliveries}")

    # ... and the SSE stream: hello on connect, the alert transition, and
    # a watchlist event from the ingest-driven composition change.
    events = wait_for(
        lambda: (lambda ev: ev if any(
            t == "alert" and isinstance(d, dict) and d.get("type") == "firing"
            for t, d in ev) else None)(sse.snapshot()[0]),
        30, "SSE alert firing event")
    if events:
        check(events[0][0] == "hello",
              f"first SSE event is {events[0][0]}, want hello")
        firing = next(d for t, d in events
                      if t == "alert" and d.get("type") == "firing")
        check(firing.get("rule") == "score-psi-high" and
              firing.get("value", 0) > 0.25,
              f"SSE firing payload malformed: {firing}")
    wait_for(
        lambda: any(t == "watchlist" for t, _ in sse.snapshot()[0]) or None,
        30, "SSE watchlist event after the attribute blast")
    for event_type, data in sse.snapshot()[0]:
        if event_type == "watchlist":
            check(isinstance(data, dict) and
                  len(data.get("watchlist", [])) > 0,
                  f"watchlist SSE payload malformed: {data}")
            break

    # alerts.* metric surface moved, and the prometheus exposition carries
    # the drift/alert families.
    gauges = drift_gauges(port)
    check(gauges.get("alerts.rules") == 3,
          f"alerts.rules gauge is {gauges.get('alerts.rules')}")
    check(gauges.get("alerts.transitions.firing.total", 0) >= 1,
          "alerts.transitions.firing.total did not move")
    status, text = http_text(port, "/metrics?format=prometheus")
    check(status == 200 and "drift_score_psi" in text and
          "alerts_firing" in text,
          "prometheus exposition lacks drift_/alerts_ families")


def check_resolve_phase(port, webhook, sse):
    """Scoring stopped: the window drains below min-count, PSI reports 0,
    and the firing rule resolves."""
    rule = wait_for(
        lambda: (lambda r: r if r and r.get("state") == "inactive" and
                 r.get("resolved_total", 0) >= 1 else None)(
            alert_state(port, "score-psi-high")),
        30, "score-psi-high to resolve after the window drains")
    if rule:
        check(rule.get("resolved_total", 0) >= 1,
              f"resolved_total did not move: {rule}")
    wait_for(
        lambda: any(
            status == 200 and isinstance(p, dict) and
            p.get("type") == "resolved" and p.get("rule") == "score-psi-high"
            for status, p in webhook.snapshot()) or None,
        30, "webhook to receive the resolved transition")
    wait_for(
        lambda: any(
            t == "alert" and isinstance(d, dict) and
            d.get("type") == "resolved" for t, d in sse.snapshot()[0]) or None,
        30, "SSE resolved event")
    _, keepalives = sse.snapshot()
    check(keepalives >= 1, "SSE stream never carried a keepalive comment")

    # ks-never must have stayed out of the whole episode.
    never = alert_state(port, "ks-never")
    check(never and never.get("state") == "inactive" and
          never.get("fired_total", 0) == 0,
          f"ks-never rule moved: {never}")


def check_monitored_server(cli, serve_bin, workdir):
    graph = workdir / "drift.graph"
    bundle = workdir / "drift_model.vgodb"
    run([cli, "generate", "--dataset=cora", "--scale=0.25", "--seed=7",
         "--inject=contextual", f"--output={graph}"])
    run([cli, "detect", f"--graph={graph}", "--detector=VBM",
         "--epoch-scale=0.05", "--seed=7", f"--save-bundle={bundle}",
         "--output=" + str(workdir / "drift_scores.tsv")])
    if not check(bundle.exists(), "detect wrote no bundle"):
        return

    rules = write_rules(workdir)
    webhook = WebhookReceiver()
    proc, port = start_server(serve_bin, [
        f"--bundle={bundle}", f"--graph={graph}", "--port=0", "--threads=2",
        "--streaming", "--watchlist-k=5", "--max-events=64",
        f"--alert-rules={rules}",
        f"--webhook-url=http://127.0.0.1:{webhook.port}/hook",
        "--monitor-interval=0.2", "--drift-rotate-seconds=0.5",
        "--drift-window-buckets=3", "--drift-min-count=32"])
    if port is None:
        webhook.stop()
        return
    sse = None
    try:
        status, health = http(port, "GET", "/healthz")
        if not check(status == 200 and isinstance(health, dict),
                     f"/healthz returned {status}"):
            return
        num_nodes = health.get("nodes", 0)
        dim = health.get("attribute_dim", 0)
        if not check(num_nodes > 0 and dim > 0,
                     f"/healthz lacks nodes/attribute_dim: {health}"):
            return

        sse = SseClient(port)
        check("200" in sse.headers.splitlines()[0] and
              "text/event-stream" in sse.headers,
              f"GET /events response malformed: {sse.headers!r}")

        check_initial_state(port, num_nodes)
        check_stable_phase(port, num_nodes)
        inject_shift(port, num_nodes, dim)
        check_drift_phase(port, num_nodes, dim, webhook, sse)
        check_resolve_phase(port, webhook, sse)
    finally:
        # SIGTERM with the SSE subscription still open: the reactor must
        # close the stream and drain to exit 0.
        stop_server(proc, "vgod_serve (monitored)")
        if sse is not None:
            sse.close()
        webhook.stop()


def strip_fingerprint(src, dst):
    """Writes bundle `src` to `dst` without the config's "fingerprint" key,
    re-sealing the checksum (layout in docs/SERVING.md section 1: magic,
    u32 version, u32-length-prefixed name and config JSON, the tensors,
    then a u64 FNV-1a over every byte after the version field). Returns
    False when `src` carried no fingerprint to drop."""
    data = src.read_bytes()
    header, body = data[:12], data[12:-8]
    (name_len,) = struct.unpack_from("<I", body, 0)
    at = 4 + name_len
    (config_len,) = struct.unpack_from("<I", body, at)
    config = json.loads(body[at + 4:at + 4 + config_len])
    if config.pop("fingerprint", None) is None:
        return False
    stripped = json.dumps(config, separators=(",", ":")).encode()
    body = (body[:at] + struct.pack("<I", len(stripped)) + stripped +
            body[at + 4 + config_len:])
    digest = 0xcbf29ce484222325
    for byte in body:
        digest = ((digest ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    dst.write_bytes(header + body + struct.pack("<Q", digest))
    return True


def check_unfingerprinted_bundle(cli, serve_bin, workdir):
    """Bundles written before fingerprints existed carry none; they must
    serve with drift reporting baseline_missing, never crash."""
    graph = workdir / "old.graph"
    fingerprinted = workdir / "new_model.vgodb"
    bundle = workdir / "old_model.vgodb"
    run([cli, "generate", "--dataset=cora", "--scale=0.15", "--seed=11",
         "--inject=standard", f"--output={graph}"])
    run([cli, "detect", f"--graph={graph}", "--detector=VGOD",
         "--epoch-scale=0.05", "--seed=11", f"--save-bundle={fingerprinted}",
         "--output=" + str(workdir / "old_scores.tsv")])
    if not check(fingerprinted.exists(), "detect --save-bundle wrote no bundle"):
        return
    if not check(strip_fingerprint(fingerprinted, bundle),
                 "--save-bundle output carries no fingerprint to drop"):
        return

    rules = write_rules(workdir)
    proc, port = start_server(serve_bin, [
        f"--bundle={bundle}", f"--graph={graph}", "--port=0", "--threads=2",
        f"--alert-rules={rules}", "--monitor-interval=0.2",
        "--drift-rotate-seconds=0.5", "--drift-min-count=8"])
    if port is None:
        return
    try:
        status, drift = http(port, "GET", "/debug/drift")
        check(status == 200 and drift.get("status") == "baseline_missing",
              f"unfingerprinted bundle drift status: {status} "
              f"{drift and drift.get('status')}")
        check(drift.get("baseline") is None,
              "baseline block present without a fingerprint")
        status, scored = http(port, "POST", "/score",
                              json.dumps({"nodes": [0, 1, 2, 3]}))
        check(status == 200 and len(scored.get("scores", [])) == 4,
              f"/score broken on unfingerprinted bundle: {status}")
        # The monitor keeps running: PSI stays 0 without a baseline, the
        # PSI rule stays inactive, evaluations accrue.
        wait_for(lambda: drift_gauges(port)
                 .get("drift.baseline.present") == 0 or None,
                 15, "drift gauges on the unfingerprinted server")
        gauges = drift_gauges(port)
        check(gauges.get("drift.baseline.present") == 0,
              f"drift.baseline.present is {gauges.get('drift.baseline.present')}")
        check(gauges.get("drift.score.psi", -1) == 0,
              f"PSI nonzero without a baseline: {gauges.get('drift.score.psi')}")
        rule = alert_state(port, "score-psi-high")
        check(rule and rule.get("state") == "inactive",
              f"PSI rule not inactive without a baseline: {rule}")
    finally:
        stop_server(proc, "vgod_serve (unfingerprinted)")


def check_hostile_rule_configs(serve_bin, workdir):
    """Every malformed --alert-rules file is a clean nonzero exit with a
    diagnostic — the server never comes up half-configured."""
    graph = workdir / "old.graph"
    bundle = workdir / "old_model.vgodb"
    hostile = [
        ("not json", "this is not an alert config"),
        ("rules not array", '{"rules": {"name": "a"}}'),
        ("unknown comparator",
         '{"rules": [{"name": "a", "metric": "m", "op": "~",'
         ' "threshold": 1}]}'),
        ("negative duration",
         '{"rules": [{"name": "a", "metric": "m", "op": ">",'
         ' "threshold": 1, "for_seconds": -2}]}'),
        ("duplicate names",
         '{"rules": [{"name": "a", "metric": "m", "op": ">", "threshold": 1},'
         ' {"name": "a", "metric": "m", "op": "<", "threshold": 0}]}'),
    ]
    for name, text in hostile:
        rules = workdir / "hostile_rules.json"
        rules.write_text(text)
        proc = subprocess.run(
            [str(serve_bin), f"--bundle={bundle}", f"--graph={graph}",
             "--port=0", f"--alert-rules={rules}"],
            capture_output=True, text=True, timeout=60)
        check(proc.returncode != 0,
              f"hostile rules ({name}) accepted: exit {proc.returncode}")
        check("alert" in (proc.stdout + proc.stderr).lower(),
              f"hostile rules ({name}) rejection lacks a diagnostic: "
              f"{proc.stdout[-500:]} {proc.stderr[-500:]}")

    proc = subprocess.run(
        [str(serve_bin), f"--bundle={bundle}", f"--graph={graph}",
         "--port=0", f"--alert-rules={workdir / 'does_not_exist.json'}"],
        capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0, "missing --alert-rules file accepted")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to vgod_cli")
    parser.add_argument("--serve", required=True, help="path to vgod_serve")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vgod_drift_check_") as tmp:
        workdir = Path(tmp)
        check_monitored_server(Path(args.cli), Path(args.serve), workdir)
        check_unfingerprinted_bundle(Path(args.cli), Path(args.serve),
                                     workdir)
        check_hostile_rule_configs(Path(args.serve), workdir)

    if ERRORS:
        print(f"\ncheck_drift: {len(ERRORS)} failure(s)", file=sys.stderr)
        return 1
    print("check_drift: all model-quality observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
