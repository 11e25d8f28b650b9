"""One cold benchmark worker: a fresh interpreter that imports padicharm,
derives the workload's inputs from the seed, and runs every operation
once.  run.py starts it; it writes its measurements to result.json in
its --tmp directory.

The timed section runs from the first operation to the end of the last.
In --mode run, reference bursts are interleaved with it (refclock.py) and
its length is also reported in bursts.  Outputs are stored, not judged:
the parent checks them afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refclock  # noqa: E402
import workloads  # noqa: E402


def run_op(cli, expansion, op: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one operation; exceptions are failures."""
    if "vpx" in op:
        n, k, p = op["vpx"]
        try:
            v = expansion.vp_H_expansion(n, k, p)
        except Exception as exc:  # a failed operation, judged by the parent
            return 1, "", f"{type(exc).__name__}: {exc}"
        return 0, json.dumps([v.exact_valuation, v.lower_bound]), ""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except Exception as exc:  # a failed operation, judged by the parent
        return 1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def probe_direct_limit(expansion, repeats: int = 5) -> dict:
    """Seconds of recip_power_sum at B = 4096 (direct scan) and B = 4097
    (closed form), summed over the tuples the tree workloads hit.

    The caches keyed by B are cleared before every call; the first of the
    repeats also fills the B-independent tables (unit power sums, the
    Stirling triangle), which real workloads reuse, and is dropped.
    """
    f = expansion.recip_power_sum
    out = {}
    for B in (4096, 4097):
        total = 0.0
        for p, r, M in workloads.PROBE_TUPLES:
            times = []
            for _ in range(repeats + 1):
                f.cache_clear()
                expansion._index_power_sums.cache_clear()
                t0 = time.perf_counter()
                f(B, r, p, M)
                times.append(time.perf_counter() - t0)
            total += statistics.median(times[1:])
        out[B] = total
    return {"expansion.recip_power_sum.direct_4096_s": out[4096],
            "expansion.recip_power_sum.closed_4097_s": out[4097]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["run", "trace", "setup", "probe"], default="run")
    ap.add_argument("--tmp", required=True, help="private temporary directory")
    args = ap.parse_args()
    result_path = os.path.join(args.tmp, "result.json")

    from padicharm import cli, expansion

    if args.mode == "probe":
        ready = time.monotonic()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "layers": probe_direct_limit(expansion)}, fh)
        return 0
    golden = workloads.load_golden()
    cache = os.path.join(args.tmp, "val-cache.jsonl")
    ops = [
        {"argv": [cache if a == workloads.CACHE_SLOT else a for a in op["argv"]]}
        if "argv" in op else op
        for op in workloads.make_ops(args.workload, args.seed, golden)
    ]
    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.instrument()

    clock = time.perf_counter
    ready = time.monotonic()
    results = []
    payload = {"ready": ready}
    if args.mode == "run":
        # reference bursts interleaved with the operations; their time is
        # left out of wall_s and of each operation's time
        with refclock.RefClock() as ref:
            for op in ops:
                t0, p0 = clock(), ref.paused_s
                rc, out, err = run_op(cli, expansion, op)
                s = clock() - t0 - (ref.paused_s - p0)
                results.append({"rc": rc, "out": out, "err": err, "s": s})
        payload.update(wall_s=ref.busy_s, wall_ref=ref.units, bursts=len(ref.bursts))
    elif args.mode == "trace":
        start = clock()
        for op in ops:
            t0 = clock()
            rc, out, err = run_op(cli, expansion, op)
            results.append({"rc": rc, "out": out, "err": err, "s": clock() - t0})
        payload["wall_s"] = clock() - start

    payload["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if results:
        payload["ops"] = results
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["cli.cache_bytes"] = os.path.getsize(cache) if os.path.exists(cache) else 0
        payload["layers"] = layers
        payload["caches"] = tracer.cache_deltas()
        payload["rpsum_keys"] = sorted(tracer.rpsum_keys)
        tracer.write_spans(os.path.join(args.tmp, "spans.jsonl"),
                           {"workload": args.workload, "seed": args.seed})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
