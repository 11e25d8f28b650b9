"""padicharm benchmark: cold worker processes, checked answers, medians.

    python3 perfbench/run.py --workload tree-dual --seed 1 --seconds 35 --trace 0

Every padicharm invocation starts with cold lru_caches, so each repetition
of a workload runs in a fresh worker process (worker.py), one at a time.
Workers are started while one more would end about --seconds into the
run; timings are medians over the workers of the run.  wall_ref is the
timed section in reference bursts run beside it (refclock.py), so that
host speed drift cancels; the raw seconds are printed on '#' lines.  The parent judges
every operation's output after the worker has exited, outside any timed
section; a wrong answer counts as a failed operation, and any failure
makes the exit code 1.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload twice
under the outside-in tracer (tracer.py), twice untraced, and once through
the _DIRECT_LIMIT probe, and prints the per-layer metrics; the two traced
runs must agree on every count.  ``--workload all`` runs the four
workloads in turn and prefixes each metric with its workload.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it are '#'-prefixed
notes for people: environment, per-metric sample counts, failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# a run must end within 180 s, so a worker still busy this many seconds
# into the run is killed and its operations count as failed
DEADLINE_S = 170.0
MIN_SETUPS = 7
PERCENTILE_OPS = 100

# end-to-end metrics (trace 0) and per-layer metrics (trace 1) as listed
# in BENCHMARK.json; units are reported with each value
END_TO_END = {
    "wall_ref": "bursts",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "core.is_prime.calls": "count",
    "core.cp.calls": "count",
    "core.vp_int.calls": "count",
    "core.to_digits.calls": "count",
    "valuation.vp_H.calls": "count",
    "valuation.stirling_mod.calls": "count",
    "valuation.row_steps": "count",
    "valuation.modulus_bits.max": "bits",
    "valuation.first_try_ratio": "ratio",
    "valuation.vp_H_sweep.calls": "count",
    "valuation.sweep_fallbacks": "count",
    "expansion.h_prime_mod.calls": "count",
    "expansion.h_prime_mod.s": "s",
    "expansion.h_prime_mod.self_s": "s",
    "expansion.recip_esym.calls": "count",
    "expansion.recip_esym.s": "s",
    "expansion.recip_esym.newton_share": "ratio",
    "expansion.recip_power_sum.calls": "count",
    "expansion.recip_power_sum.s": "s",
    "expansion.recip_power_sum.closed_share": "ratio",
    "expansion.recip_power_sum.hit_ratio": "ratio",
    "expansion.recip_power_sum.direct_4096_s": "s",
    "expansion.recip_power_sum.closed_4097_s": "s",
    "expansion.index_power_sums.hit_ratio": "ratio",
    "expansion.h_p_mod.calls": "count",
    "expansion.vp_H_expansion.calls": "count",
    "expansion.vp_H_expansion.exact_ratio": "ratio",
    "tree.levels": "count",
    "tree.nodes": "count",
    "tree.leaves": "count",
    "tree.frontier_max": "count",
    "tree.dual_checks": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def note(text: str) -> None:
    print("# " + text, flush=True)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop.  Recorded, never used to
    rescale: it shows host-side speed drift between runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def worker_env() -> dict:
    env = dict(os.environ)
    # PADIC_CACHE would override --cache and send the stream's writes
    # into a user's cache
    env.pop("PADIC_CACHE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """One benchmark run of one workload: its workers and what went wrong."""

    def __init__(self, workload: str, seed: int, golden: dict, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.ops = workloads.make_ops(workload, seed, golden)
        self.checker = workloads.Checker(workload, seed, golden)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(problem)

    def spawn(self, mode: str) -> dict | None:
        """Start one worker, wait for it, and return its result (None if it
        died).  Its temporary directory holds the worker's fresh cache."""
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="worker-", dir=OUT_DIR)
        out = os.path.join(tmp, "result.json")
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--tmp", tmp]
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            spawned = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                                  text=True, timeout=timeout)
            if proc.returncode != 0 or not os.path.exists(out):
                self.failures.append(f"{mode} worker exited {proc.returncode}: "
                                     f"{proc.stderr.strip()[-500:]}")
                return None
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            result["setup_s"] = result["ready"] - spawned
            spans = os.path.join(tmp, "spans.jsonl")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(
                    OUT_DIR, f"spans-{self.workload}-seed{self.seed}.jsonl"))
            return result
        except subprocess.TimeoutExpired:
            self.failures.append(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
            return None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def helper(self, mode: str) -> dict | None:
        """A worker that runs no operation (set-up only, or the probe)."""
        result = self.spawn(mode)
        if result is None:
            self.failed += 1
        return result

    def work(self, mode: str) -> dict | None:
        """A worker that runs the workload; its outputs are judged here,
        after it has exited."""
        self.attempted += len(self.ops)
        result = self.spawn(mode)
        if result is None:
            self.fail(f"all {len(self.ops)} operations lost with the worker", len(self.ops))
            return None
        for op, res in zip(self.ops, result["ops"]):
            if res["rc"] != 0:
                problem = f"exit {res['rc']}: {res['err'].strip()[-300:]}"
            else:
                problem = self.checker.check(op, res["out"])
            if problem:
                self.fail(f"{describe(op)}: {problem}")
        return result


def describe(op: dict) -> str:
    if "vpx" in op:
        n, k, p = op["vpx"]
        return f"vp_H_expansion(n={n}, k={k}, p={p})"
    return "padicharm " + " ".join(op["argv"])


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def seconds_list(workers: list[dict]) -> str:
    return " ".join(f"{w['wall_s']:.4f}" for w in workers)


def end_to_end(run: Run, seconds: float) -> dict:
    workers, setups = [], []

    def top_up(target: int) -> None:
        while len(setups) < target:
            extra = run.helper("setup")
            if extra is None:
                return
            setups.append(extra["setup_s"])

    # Start another worker while its expected midpoint falls inside the
    # run, so a run lasts about --seconds whatever the worker size; a
    # median needs at least two.
    step = 0.0
    while len(workers) < 2 or time.monotonic() - run.started + step / 2 < seconds:
        began = time.monotonic()
        workers.append(run.work("run"))
        if workers[-1] is not None:
            setups.append(workers[-1]["setup_s"])
        # set-up-only workers between the full ones, so the set-up median
        # samples the whole run rather than one stretch of host speed
        top_up(MIN_SETUPS * len(workers) // 2)
        step = time.monotonic() - began
    top_up(MIN_SETUPS)
    done = [w for w in workers if w is not None]
    note(f"workers={len(workers)} setups={len(setups)} ops/worker={len(run.ops)}")
    if not done:
        return {}
    dual = sorted({
        sum(json.loads(res["out"])["dual_checks"]
            for op, res in zip(run.ops, w["ops"])
            if op.get("argv", [""])[0] == "tree" and res["rc"] == 0)
        for w in done
    })
    note(f"wall_s per worker: {seconds_list(done)}")
    note("wall_ref per worker: " + " ".join(
        f"{w['wall_ref']:.2f} ({w['bursts']} bursts)" for w in done))
    note(f"setup_s: {' '.join(f'{x:.4f}' for x in setups)}")
    # a p90 needs ten samples above it, so only a workload with many
    # operations per worker gets latency percentiles
    if len(run.ops) >= PERCENTILE_OPS:
        latencies = [o["s"] for w in done for o in w["ops"]]
        note(f"op latency over {len(latencies)} operations: "
             f"p50 {quantile(latencies, 50):.6f} s, p90 {quantile(latencies, 90):.6f} s")
    note(f"error_rate {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    note(f"tree dual_checks per worker: {dual}")
    return {
        "wall_ref": statistics.median(w["wall_ref"] for w in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(w["maxrss_kb"] / 1024 for w in done),
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }


def is_time(name: str) -> bool:
    return name.endswith((".s", "_s"))


def layered(run: Run) -> dict:
    # traced and untraced workers alternate so host drift hits both alike
    workers = [run.work(mode) for mode in ("trace", "run", "trace", "run")]
    probe = run.helper("probe")
    traced = [w for w in workers[0::2] if w is not None]
    plain = [w for w in workers[1::2] if w is not None]
    if len(traced) < 2 or not plain or probe is None:
        return {}
    a, b = traced[0]["layers"], traced[1]["layers"]
    # counts must repeat exactly between two traced runs of one seed
    for name in sorted(a):
        if not is_time(name) and a[name] != b[name]:
            run.fail(f"trace counts differ between two runs: {name} {a[name]} vs {b[name]}")
    if traced[0]["caches"] != traced[1]["caches"]:
        run.fail("lru cache hit counts differ between two traced runs")
    both = {name: statistics.median([a[name], b[name]]) if is_time(name) else a[name]
            for name in a}
    both.update(probe["layers"])
    both["trace.wall_s"] = statistics.median(w["wall_s"] for w in traced)
    both["trace.overhead_s"] = both["trace.wall_s"] - statistics.median(
        w["wall_s"] for w in plain)
    note(f"untraced wall_s: {seconds_list(plain)}  traced wall_s: {seconds_list(traced)}")
    note("every layer figure (times: median of the two traced runs):")
    for name in sorted(both):
        note(f"  {name} = {both[name]:.6g}")
    note("lru caches hits/misses: " + ", ".join(
        f"{k} {v['hits']}/{v['misses']}" for k, v in sorted(traced[0]["caches"].items())))
    note("recip_power_sum (p, r, M) tuples: " + " ".join(
        f"({p},{r},{M})" for p, r, M in traced[0]["rpsum_keys"]))
    return both


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict) -> tuple[dict, int, int]:
    run = Run(workload, seed, golden, time.monotonic())
    note(f"workload={workload} seed={seed} trace={int(trace)} "
         f"inputs={workloads.inputs_digest(run.ops)}")
    metrics = layered(run) if trace else end_to_end(run, seconds)
    if not metrics:
        run.failed = max(run.failed, 1)
    for problem in run.failures[:20]:
        note(f"FAIL {problem}")
    units = PER_LAYER if trace else END_TO_END
    return ({name: {"value": metrics.get(name, 0.0), "unit": unit}
             for name, unit in units.items()}, run.attempted, run.failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "padicharm", "__init__.py")):
        print("perfbench: padicharm sources not found under src/", file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    note(f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
         f"loadavg={load} calibration_s={calibrate():.4f}")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace), golden)
        for metric, entry in m.items():
            note(f"{name} {metric} = {entry['value']!r} {entry['unit']}")
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = entry
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
