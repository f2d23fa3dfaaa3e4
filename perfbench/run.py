"""hesskit benchmark runner.

    python3 perfbench/run.py --workload onerow-verify --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  A single client drives one worker process
in a closed loop: it sends an op, waits for the reply, checks the output
with the gate (clock stopped), then sends the next op.  The worker imports
hesskit from the checkout's ``src/`` and runs each op in-process through
``hesskit.cli.main`` or, where the CLI has no surface, the library call.

``--trace 0`` runs whole cycles of the workload's op stream (see
workloads.py) until the op time, at the nominal speed of reference.py, is
nearest to ``--seconds``, and prints the end-to-end metrics.  ``--trace 1``
runs a fixed op count twice, untraced and then traced, each in a fresh
worker, and prints the per-layer metrics.  The last line of stdout is the
result JSON; the full record, with the environment and every op's timing,
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from itertools import islice

from reference import PROBE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 11
# Times `import hesskit` plus `cli.build_parser()` in a fresh interpreter.
SETUP_PROBE = """
import importlib, sys
sys.path[:0] = [{src!r}, {here!r}]
from reference import Clock
clock = Clock()
clock(lambda: importlib.import_module("hesskit.cli").build_parser())
print(clock.seconds, clock.probe_s)
"""


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HESSKIT_MAX_N", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Drive:
    """One worker process: ops in, gated replies out."""

    def __init__(self, gate, env: dict, trace: bool = False, spans: str | None = None):
        argv = [sys.executable, os.path.join(HERE, "worker.py")]
        if trace:
            argv += ["--trace"] + (["--spans", spans] if spans else [])
        self.gate = gate
        self.seconds: list[float] = []  # raw op times
        self.probes: list[float] = []  # mean probe time around and in each op
        self.scaled: list[float] = []  # op times at the nominal speed
        self.failures: list[str] = []
        self.layers: dict | None = None
        self.output_bytes = 0
        self.peak_rss_mb = 0.0
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def run(self, ops, budget_s: float | None = None, cycle: int = 1) -> "Drive":
        """Send every op, or with ``budget_s`` stop at the end of the cycle of
        ``cycle`` ops that brings the op time nearest to the budget, so each
        run holds whole cycles and the same mix of input sizes."""
        try:
            for spec in ops:
                self.proc.stdin.write(json.dumps(spec) + "\n")
                self.proc.stdin.flush()
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("worker exited mid-run")
                reply = json.loads(line)
                self.seconds.append(reply["seconds"])
                self.probes.append(reply["probe_s"])
                self.scaled.append(reply["seconds"] * PROBE_S / reply["probe_s"])
                self.output_bytes += len(reply["out"].get("stdout", "").encode())
                problem = self.gate.check(spec, reply["out"])
                if problem is not None:
                    self.failures.append(f"{' '.join(spec.get('argv', [spec['kind']]))}: {problem}")
                cycles, partial = divmod(len(self.scaled), cycle)
                if budget_s is not None and not partial:
                    spent = sum(self.scaled)
                    if spent + spent / cycles / 2 >= budget_s:
                        break
            self.proc.stdin.close()
            tail = self.proc.stdout.readline()
            if tail:
                self.layers = json.loads(tail)["layers"]
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            if self.proc.returncode != 0:
                raise RuntimeError(f"worker exited with code {self.proc.returncode}")
            self.peak_rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
        return self


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median time for a fresh interpreter to import hesskit and build the
    parser: at the nominal reference speed, and raw."""
    probe = SETUP_PROBE.format(src=os.path.join(ROOT, "src"), here=HERE)
    raw, times = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        if i:  # the first run may compile bytecode
            seconds, probe_s = map(float, done.stdout.split())
            raw.append(seconds)
            times.append(seconds * PROBE_S / probe_s)
    return statistics.median(times), statistics.median(raw)


def latency_metrics(op_seconds: list[float]) -> dict:
    lat_ms = [s * 1000 for s in op_seconds]
    return {
        "ops_per_s": (len(lat_ms) / sum(op_seconds), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
    }


def end_to_end(stream, cycle: int, seconds: float, env: dict, gate) -> tuple[dict, list[Drive], dict]:
    drive = Drive(gate, env).run(stream, budget_s=seconds, cycle=cycle)
    metrics = latency_metrics(drive.scaled)
    metrics["peak_rss_mb"] = (drive.peak_rss_mb, "MB")
    setup, raw_setup = setup_seconds(env)
    metrics["setup_s"] = (setup, "s")
    raw = latency_metrics(drive.seconds)
    raw["setup_s"] = (raw_setup, "s")
    return metrics, [drive], raw


def per_layer(ops: list, spans: str, env: dict, gate) -> tuple[dict, list[Drive], dict]:
    plain = Drive(gate, env).run(ops)
    traced = Drive(gate, env, trace=True, spans=spans).run(ops)
    layers = traced.layers
    traced_wall = sum(traced.seconds)
    raw_overhead = traced_wall / sum(plain.seconds) - 1
    speed = sum(traced.scaled) / traced_wall  # self times at the nominal speed, too
    s = {k[: -len(".self_s")]: v * speed for k, v in layers.items() if k.endswith(".self_s")}
    metrics = {k: (v, "count") for k, v in layers.items() if not k.endswith(".self_s")}
    metrics.update({f"{k}.self_s": (v, "s") for k, v in s.items()})
    del metrics["polyalg.pairs"]
    emitted = layers["core.fillings_emitted"]
    metrics["core.enumerate_fillings.us_per_filling"] = (
        s["core.enumerate_fillings"] / emitted * 1e6 if emitted else 0.0,
        "us",
    )
    pairs = layers["polyalg.pairs"]
    metrics["polyalg.reduced_pair_frac"] = (
        layers["polyalg.reduce.calls"] / pairs if pairs else 0.0,
        "frac",
    )
    core_polyalg = sum(v for k, v in s.items() if k.startswith(("core.", "polyalg.")))
    metrics["trace.core_polyalg_frac"] = (core_polyalg / sum(traced.scaled), "frac")
    metrics["trace.overhead_frac"] = (sum(traced.scaled) / sum(plain.scaled) - 1, "frac")
    metrics["cli.output_bytes"] = (traced.output_bytes, "B")
    return metrics, [plain, traced], {"trace.overhead_frac": (raw_overhead, "frac")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/hesskit/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; perfbench must sit in a hesskit checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import gate as gating
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = hermetic_env()
    gate = gating.Gate()
    stream, cycle, traced_ops = workloads.ops(args.workload, args.seed)
    split = None
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")
        metrics, drives, raw = per_layer(list(islice(stream, traced_ops)), spans, env, gate)
        claim, holds = workloads.LAYER_SPLIT[args.workload]
        split = {"claim": claim, "holds": holds({k: v for k, (v, _) in metrics.items()})}
    else:
        metrics, drives, raw = end_to_end(stream, cycle, args.seconds, env, gate)

    attempted = sum(len(d.seconds) for d in drives)
    failures = [problem for d in drives for problem in d.failures]
    failed = len(failures)
    for problem in failures[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "layer_split": split,
        "failures": failures,
        "ops": [list(zip(d.seconds, d.probes)) for d in drives],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as out:
        json.dump(record, out, indent=1)
    summary = {"env": record["env"], "samples": attempted, "fail_frac": record["fail_frac"]}
    if split is not None:
        summary["layer_split"] = split
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
