#!/usr/bin/env python3
"""End-to-end validator for the vgod observability artifacts.

Drives vgod_cli over a tiny synthetic graph and checks that the three
export formats are well-formed and mutually consistent:

  * --telemetry_out JSONL: one object per epoch with the schema documented
    in docs/OBSERVABILITY.md, epochs numbered 1..N, and loss values that
    match the VGOD_LOG_LEVEL=debug stderr training log line by line.
  * --metrics_out JSON: counters/gauges/histograms envelope; the matmul
    counters must have moved during training.
  * --trace_out Chrome trace JSON: a traceEvents array of complete ("X")
    events including the per-epoch and whole-fit spans, each epoch once,
    and the scopes beneath them (the detector's fit phase, kernels).

Run directly (`python3 tools/check_telemetry.py --cli build/tools/vgod_cli`)
or via ctest (registered as check_telemetry).
"""

import argparse
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

EPOCH_RECORD_KEYS = {
    "detector": str,
    "epoch": int,
    "planned_epochs": int,
    "loss": float,
    "grad_norm": float,
    "seconds": float,
    "peak_tensor_bytes": int,
}

# Debug line emitted by TrainingRun::EndEpoch, e.g.
# "2026-08-06T12:00:00Z [DEBUG] [tid 1] VBM epoch 3/5 loss=-0.123 ..."
LOG_EPOCH_RE = re.compile(
    r"(?P<detector>\S+) epoch (?P<epoch>\d+)/(?P<planned>\d+) "
    r"loss=(?P<loss>[-+0-9.eEinfa]+) grad_norm=")

ERRORS = []


def fail(message):
    ERRORS.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def check(condition, message):
    if not condition:
        fail(message)
    return condition


def run(cmd, env_extra=None):
    import os
    env = dict(os.environ)
    env.pop("VGOD_TRACE", None)  # The CLI flags drive tracing here.
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}\n"
             f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
        sys.exit(1)
    return proc


def validate_telemetry(path, stderr_log):
    lines = Path(path).read_text().splitlines()
    check(lines, "telemetry JSONL is empty")
    records = []
    for i, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            fail(f"telemetry line {i} is not valid JSON: {err}")
            continue
        for key, kind in EPOCH_RECORD_KEYS.items():
            if not check(key in record, f"telemetry line {i} missing '{key}'"):
                continue
            value = record[key]
            if kind is float:
                ok = isinstance(value, (int, float)) and math.isfinite(value)
            elif kind is int:
                ok = isinstance(value, int) or (
                    isinstance(value, float) and value.is_integer())
            else:
                ok = isinstance(value, kind)
            check(ok, f"telemetry line {i} field '{key}' has bad value "
                      f"{value!r}")
        records.append(record)

    epochs = [r.get("epoch") for r in records]
    check(epochs == list(range(1, len(records) + 1)),
          f"epochs are not 1..N: {epochs}")
    for r in records:
        check(r.get("seconds", -1.0) >= 0.0, "negative epoch seconds")
        check(r.get("peak_tensor_bytes", -1) >= 0, "negative peak bytes")

    # Cross-check against the debug training log: same epochs, same losses.
    logged = [m.groupdict() for m in map(LOG_EPOCH_RE.search,
                                         stderr_log.splitlines()) if m]
    check(len(logged) == len(records),
          f"stderr log has {len(logged)} epoch lines, JSONL has "
          f"{len(records)}")
    for record, entry in zip(records, logged):
        check(record["detector"] == entry["detector"],
              f"detector mismatch: {record['detector']} vs "
              f"{entry['detector']}")
        check(record["epoch"] == int(entry["epoch"]),
              f"epoch mismatch: {record['epoch']} vs {entry['epoch']}")
        logged_loss = float(entry["loss"])
        tolerance = max(1e-4, 1e-3 * abs(logged_loss))
        check(abs(record["loss"] - logged_loss) <= tolerance,
              f"epoch {record['epoch']} loss mismatch: JSONL "
              f"{record['loss']} vs log {logged_loss}")
    return records


def validate_metrics(path):
    metrics = json.loads(Path(path).read_text())
    for section in ("counters", "gauges", "histograms"):
        check(section in metrics, f"metrics JSON missing '{section}'")
    counters = metrics.get("counters", {})
    check(counters.get("tensor.matmul.calls", 0) > 0,
          "tensor.matmul.calls did not move during training")
    check(counters.get("tensor.matmul.flops", 0) > 0,
          "tensor.matmul.flops did not move during training")
    for name, hist in metrics.get("histograms", {}).items():
        bucket_total = sum(b["count"] for b in hist["buckets"])
        check(bucket_total == hist["count"],
              f"histogram {name}: buckets sum {bucket_total} != count "
              f"{hist['count']}")


def validate_trace(path, detector, expected_epochs):
    trace = json.loads(Path(path).read_text())
    check("traceEvents" in trace, "trace JSON missing 'traceEvents'")
    events = trace.get("traceEvents", [])
    check(events, "trace has no events")
    names = [e.get("name") for e in events]
    for event in events:
        check(event.get("ph") == "X", f"non-complete event: {event}")
        for key in ("ts", "dur", "pid", "tid", "name"):
            check(key in event, f"trace event missing '{key}': {event}")
        check(event.get("dur", -1) >= 0, f"negative duration: {event}")
    epoch_spans = names.count(f"{detector}/epoch")
    check(epoch_spans == expected_epochs,
          f"expected {expected_epochs} {detector}/epoch spans, got "
          f"{epoch_spans}")
    check(f"{detector}/fit" in names, f"missing {detector}/fit span")
    # Scopes feed the trace too: the fit phase once, the kernels beneath
    # it, and no second, hand-written record of each epoch.
    phase = f"detector/{detector.lower()}_fit"
    check(names.count(phase) == 1,
          f"expected one {phase} span, got {names.count(phase)}")
    check(any(name.startswith("kernel/") for name in names),
          "trace has no kernel/ spans")
    duplicate = f"{detector.lower()}/epoch"
    check(duplicate not in names,
          f"trace still records {duplicate} beside {detector}/epoch")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True,
                        help="path to the built vgod_cli binary")
    parser.add_argument("--detector", default="VBM")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="vgod_telemetry_") as tmp:
        tmp_path = Path(tmp)
        graph = tmp_path / "tiny.graph"
        telemetry = tmp_path / "train.jsonl"
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"

        run([args.cli, "generate", "--dataset=cora", "--scale=0.05",
             "--seed=5", "--inject=standard", f"--output={graph}"])
        detect = run(
            [args.cli, "detect", f"--graph={graph}",
             f"--detector={args.detector}", "--epoch-scale=0.05",
             f"--telemetry_out={telemetry}", f"--metrics_out={metrics}",
             f"--trace_out={trace}"],
            env_extra={"VGOD_LOG_LEVEL": "debug"})

        records = validate_telemetry(telemetry, detect.stderr)
        validate_metrics(metrics)
        if records:
            validate_trace(trace, args.detector, len(records))

    if ERRORS:
        print(f"check_telemetry: {len(ERRORS)} error(s)", file=sys.stderr)
        return 1
    print("check_telemetry: all artifacts consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
