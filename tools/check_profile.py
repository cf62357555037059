#!/usr/bin/env python3
"""End-to-end validator for the compute profiler (docs/OBSERVABILITY.md).

Exercises both profiler surfaces:

  1. `vgod_cli detect --profile_out` must write a folded-stack file whose
     every line matches `frame(;frame)* <nanoseconds>`, and a `.json`
     variant whose call tree satisfies the structural invariant at every
     node: sum of child inclusive_ns <= parent inclusive_ns, with
     exclusive_ns the exact remainder. The tree must contain the
     detector/kernel scopes the instrumentation promises.
  2. A live `vgod_serve` under concurrent inline-subgraph /score traffic
     (node lookups would read the score cache after the static graph's
     one refresh; every inline subgraph runs its own Score()) must answer
     GET /debug/profile?seconds=N with a windowed capture in which the
     serve/score subtree exists and >= 90% of its inclusive time is
     attributed to named child scopes (detector/graph/kernel/gnn regions)
     rather than unattributed self time. The folded format variant and
     parameter validation (seconds out of range, POST) are checked too.

Run directly (`python3 tools/check_profile.py --cli build/tools/vgod_cli
--serve build/tools/vgod_serve`) or via ctest (registered as
check_profile).
"""

import argparse
import json
import os
import re
import signal
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
FOLDED_LINE_RE = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")


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


def http(port, method, path, body=None, timeout=90):
    """Returns (status, body-text)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body.encode() if body is not None else None,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, reply.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


# --- call-tree checks ---------------------------------------------------


def walk_tree(node, path=""):
    """Yields (path, node) for every node below (and including) `node`."""
    name = node.get("name", "")
    here = f"{path};{name}" if path and name else (name or path)
    yield here, node
    for child in node.get("children", []):
        yield from walk_tree(child, here)


def check_tree_invariant(root, context):
    """sum(child inclusive) <= parent inclusive; exclusive is the rest."""
    for path, node in walk_tree(root):
        child_sum = sum(c.get("inclusive_ns", 0)
                        for c in node.get("children", []))
        inclusive = node.get("inclusive_ns", 0)
        exclusive = node.get("exclusive_ns", 0)
        check(child_sum <= inclusive,
              f"{context}: node '{path}' child inclusive sum {child_sum} "
              f"exceeds parent inclusive {inclusive}")
        check(exclusive == inclusive - child_sum,
              f"{context}: node '{path}' exclusive {exclusive} != "
              f"inclusive {inclusive} - child sum {child_sum}")
        check(node.get("calls", 0) >= 0 and inclusive >= 0,
              f"{context}: node '{path}' has negative counters")


def find_node(root, name):
    for _, node in walk_tree(root):
        if node.get("name") == name:
            return node
    return None


def check_folded(text, context):
    lines = [line for line in text.splitlines() if line]
    if not check(lines, f"{context}: folded output is empty"):
        return
    for line in lines:
        check(FOLDED_LINE_RE.match(line) is not None,
              f"{context}: malformed folded line {line!r}")
    check(lines == sorted(lines), f"{context}: folded lines are not sorted")


# --- vgod_cli --profile_out --------------------------------------------


def check_cli_profile(cli, workdir):
    graph = workdir / "profile.graph"
    run([cli, "generate", "--dataset=cora", "--scale=0.1", "--seed=7",
         "--inject=standard", f"--output={graph}"])

    folded = workdir / "detect.folded"
    proc = run([cli, "detect", f"--graph={graph}", "--detector=VGOD",
                "--epoch-scale=0.05", "--seed=7",
                f"--profile_out={folded}"])
    check("wrote profile to" in proc.stdout,
          "detect --profile_out did not report writing the profile")
    if check(folded.exists(), "--profile_out wrote no folded file"):
        text = folded.read_text()
        check_folded(text, "cli folded")
        check("kernel/" in text,
              "cli folded profile has no kernel/* frames")
        check("detector/vgod_fit" in text,
              "cli folded profile lacks the detector/vgod_fit phase")

    tree_path = workdir / "detect_profile.json"
    run([cli, "detect", f"--graph={graph}", "--detector=VGOD",
         "--epoch-scale=0.05", "--seed=7", f"--profile_out={tree_path}"])
    if not check(tree_path.exists(), "--profile_out wrote no json file"):
        return
    root = json.loads(tree_path.read_text())
    check_tree_invariant(root, "cli tree")
    fit = find_node(root, "detector/vgod_fit")
    if check(fit is not None, "cli tree lacks detector/vgod_fit"):
        check(fit.get("calls") == 1,
              f"detector/vgod_fit calls {fit.get('calls')} != 1")
        check(fit.get("peak_bytes", 0) > 0,
              "detector/vgod_fit recorded no tensor memory phase peak")
        check(fit.get("children"),
              "detector/vgod_fit has no child scopes (kernels were not "
              "attributed under the fit phase)")
    score = find_node(root, "detector/vgod_score")
    if check(score is not None, "cli tree lacks detector/vgod_score"):
        check(score.get("inclusive_ns", 0) > 0,
              "detector/vgod_score recorded no time")
    matmul = find_node(root, "kernel/matmul")
    if check(matmul is not None, "cli tree lacks kernel/matmul"):
        check(matmul.get("bytes", 0) > 0,
              "kernel/matmul attributed no bytes")


# --- /debug/profile against a live server ------------------------------


def start_server(serve_bin, bundle, graph):
    proc = subprocess.Popen(
        [str(serve_bin), f"--bundle={bundle}", f"--graph={graph}",
         "--port=0", "--threads=2"],
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


def subgraph_body(dim, num_nodes=128):
    """An inline /score subgraph with the served model's attribute schema:
    a ring plus chords, deterministic pseudo-random attributes."""
    edges = [[i, (i + step) % num_nodes]
             for i in range(num_nodes) for step in (1, 5)]
    attributes = [[((i * 31 + j * 17) % 97) / 97.0 for j in range(dim)]
                  for i in range(num_nodes)]
    return json.dumps({"graph": {"num_nodes": num_nodes, "edges": edges,
                                 "attributes": attributes}})


def score_loop(port, body, stop_event):
    while not stop_event.is_set():
        try:
            http(port, "POST", "/score", body, timeout=30)
        except Exception:
            time.sleep(0.05)


def check_serve_profile(cli, serve_bin, workdir):
    graph = workdir / "serve.graph"
    bundle = workdir / "model.vgodb"
    run([cli, "generate", "--dataset=cora", "--scale=0.1", "--seed=7",
         "--inject=standard", f"--output={graph}"])
    run([cli, "detect", f"--graph={graph}", "--detector=VBM",
         "--epoch-scale=0.05", "--seed=7", f"--save-bundle={bundle}"])

    proc, port = start_server(serve_bin, bundle, graph)
    if port is None:
        return
    try:
        # Parameter validation before any load.
        status, _ = http(port, "GET", "/debug/profile?seconds=0")
        check(status == 400, f"seconds=0 returned {status}, want 400")
        status, _ = http(port, "GET", "/debug/profile?seconds=90")
        check(status == 400, f"seconds=90 returned {status}, want 400")
        status, _ = http(port, "GET", "/debug/profile?seconds=bogus")
        check(status == 400, f"seconds=bogus returned {status}, want 400")
        status, _ = http(port, "GET", "/debug/profile?format=xml")
        check(status == 400, f"format=xml returned {status}, want 400")
        status, _ = http(port, "POST", "/debug/profile", body="{}")
        check(status == 405, f"POST /debug/profile returned {status}, "
                             f"want 405")

        status, health = http(port, "GET", "/healthz")
        dim = json.loads(health).get("attribute_dim", 0) if status == 200 else 0
        if not check(dim > 0, f"/healthz lacks attribute_dim: {health}"):
            return
        body = subgraph_body(dim)

        # Windowed capture under concurrent scoring traffic.
        stop_event = threading.Event()
        clients = [threading.Thread(target=score_loop,
                                    args=(port, body, stop_event))
                   for _ in range(3)]
        for client in clients:
            client.start()
        time.sleep(0.3)  # let traffic reach steady state
        try:
            status, text = http(port, "GET", "/debug/profile?seconds=2")
        finally:
            stop_event.set()
            for client in clients:
                client.join()
        if not check(status == 200,
                     f"/debug/profile returned {status}, want 200"):
            return
        payload = json.loads(text)
        check(payload.get("seconds") == 2,
              f"window echoed seconds {payload.get('seconds')}, want 2")
        root = payload.get("profile", {})
        check_tree_invariant(root, "serve tree")

        score = find_node(root, "serve/score")
        if not check(score is not None,
                     "window tree lacks serve/score (no scoring captured "
                     "in a 2s window under load)"):
            return
        inclusive = score.get("inclusive_ns", 0)
        attributed = sum(c.get("inclusive_ns", 0)
                         for c in score.get("children", []))
        check(inclusive > 0, "serve/score captured no time")
        if inclusive > 0:
            coverage = attributed / inclusive
            check(coverage >= 0.9,
                  f"only {coverage:.1%} of serve/score time is attributed "
                  f"to named child scopes (need >= 90%)")
            print(f"serve/score kernel attribution: {coverage:.1%} "
                  f"({attributed} / {inclusive} ns)")

        # Folded variant of the same endpoint.
        status, text = http(port, "GET",
                            "/debug/profile?seconds=1&format=folded")
        if check(status == 200, f"folded window returned {status}"):
            check_folded(text, "serve folded")

        # The windowed capture must not leave profiling latched on: a
        # fresh window starts from a cleared tree either way, but the
        # steady-state hot path should be back to the disabled fast path.
        status, text = http(port, "GET", "/metrics")
        check(status == 200, "server unhealthy after profile windows")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("vgod_serve did not exit after SIGTERM")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to vgod_cli")
    parser.add_argument("--serve", required=True, help="path to vgod_serve")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vgod_check_profile_") as tmp:
        workdir = Path(tmp)
        check_cli_profile(Path(args.cli), workdir)
        check_serve_profile(Path(args.cli), Path(args.serve), workdir)

    if ERRORS:
        print(f"\ncheck_profile: {len(ERRORS)} failure(s)", file=sys.stderr)
        return 1
    print("check_profile: profiler exports and /debug/profile are healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
