"""Benchmark worker: runs hesskit ops in-process, one at a time, on request.

Started by ``run.py`` as a fresh interpreter; hesskit comes from the
``src/`` directory next to this benchmark's directory.  It reads one JSON op
spec per line on stdin, runs it, and answers with one JSON line holding the
op's time and its outputs.  Only the library call is timed
(``reference.Clock``); output conversion and the reply happen after the
clock stops, and run.py checks each reply before it sends the next op.
With ``--trace`` the worker installs the span tracer first and, when stdin
closes, answers with the per-layer totals and writes every span to
``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import hesskit  # noqa: E402
from hesskit import cli, polyalg, regnilp, springer  # noqa: E402
from hesskit.core import HessenbergFunction, Monomial  # noqa: E402
from reference import Clock  # noqa: E402
import tracer as tracing  # noqa: E402


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out, err


def run_op(spec: dict, clock: Clock) -> dict:
    """Run one op and return its outputs; ``clock`` times only the library work."""
    kind = spec["kind"]
    if kind == "cli":
        code, out, err = clock(lambda: _cli(spec["argv"]))
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if kind == "onerow":
        values = spec["h"]
        argv = ["verify", "--h", ",".join(map(str, values)), "--format", "json"]

        def verify_and_groebner():
            verified = _cli(argv)
            h = HessenbergFunction(values)
            generators = polyalg.jh_generators(h)
            groebner = polyalg.is_groebner(generators)
            staircase = polyalg.standard_monomials(generators)
            return verified, groebner, staircase, staircase == regnilp.b_h_basis(h)

        (code, out, err), groebner, staircase, same = clock(verify_and_groebner)
        return {
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "groebner": groebner,
            "staircase": sorted(staircase),
            "staircase_eq": same,
        }
    if kind == "psi_h":

        def inverse():
            h = HessenbergFunction(spec["h"])
            return [regnilp.psi_h(h, Monomial(m)) for m in spec["monomials"]]

        return {"fillings": [f.to_json() for f in clock(inverse)]}
    if kind == "psi":

        def inverse():
            mu = tuple(spec["mu"])
            return [springer.psi(mu, Monomial(m)) for m in spec["monomials"]]

        return {"fillings": [f.to_json() for f in clock(inverse)]}
    raise ValueError(f"unknown op kind {kind!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    reply = sys.stdout
    clock = Clock()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    for op_id, line in enumerate(sys.stdin):
        spec = json.loads(line)
        gc.collect()
        if tracer is not None:
            tracer.op_id = op_id
        try:
            outputs = run_op(spec, clock)
        except Exception as exc:  # a failed op is reported, not fatal
            outputs = {"error": f"{type(exc).__name__}: {exc}"}
        timing = {"seconds": clock.seconds, "probe_s": clock.probe_s}
        reply.write(json.dumps({**timing, "out": outputs}) + "\n")
        reply.flush()
    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        reply.write(json.dumps({"layers": layer_metrics(tracer)}) + "\n")
        reply.flush()
    return 0


def layer_metrics(tracer) -> dict:
    """Per-layer totals over every op the traced worker ran."""
    out = {}
    for module_name, attr in tracing.TRACED:
        name = f"{module_name}.{attr}"
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    out.update(tracer.counts)
    return out


if __name__ == "__main__":
    if not hesskit.__file__.startswith(SRC):
        sys.exit(f"hesskit imported from {hesskit.__file__}, not the checkout")
    sys.exit(main())
