#!/usr/bin/env python3
"""Compare two checkouts of padicharm in alternating pairs and write a BENCH file.

Each pair runs the same input on both checkouts, one after the other, and
the side that goes first alternates from pair to pair, so host drift hits
both alike.  Two kinds of pair:

  perfbench  python3 perfbench/run.py --workload W --seed S --seconds T
             --trace 0, run in each checkout's own directory with its own
             perfbench/, T being run_seconds of that checkout's
             BENCHMARK.json; one pair per seed.
  ops        one fresh interpreter per side and pair imports padicharm
             from the checkout's src/ and times each cli.main call of a
             group in turn, in process.  Three groups are perfbench
             workloads at seed 1: tree-dual (tree --p 3 --k 2..5),
             verify-suite (the nine verify checks and two sweeps, verify
             structural first) and deep-expansion (fseq, the
             expansion-only trees, then vp_H_expansion calls, each listed
             as "vpx N K P" and hashed as perfbench prints it, [exact,
             lower]).  vpx-walks is deep-expansion's vp_H_expansion
             calls alone, without the fseq and tree builds before them,
             so no tree leaf is recorded and every call walks its
             digits; in deep-expansion they read the leaves those builds
             recorded.  deep-walk is the deep walks no workload reaches:
             fseq --terms 600 and the expansion-only trees T_3(14) at
             depth 60, T_7(5) at depth 40 and T_11(11) at depth 40.
             deep-cap is expansion and stirling trees at caps far past
             the level they close or run to, where a walk pays for the
             reach it lifts to, after one vp_H_expansion call on a
             1000-digit n whose path leaves T_3(9) at depth 141 (it runs
             first, so no tree build has recorded its leaf): T_5(2) at
             --max-depth 1000 (closes at 18), T_13(8) at 200 (closes at
             31), the T_2(5) chain at 200, a stirling T_3(7) at 100
             (closes at 11) and T_3(9) at 1000 (closes at 164).
             deep-memory is one expansion-only build of T_7(15) at
             depth 300 (31 767 nodes, 187 978 leaves), alone in its
             interpreter so the peak RSS is its own, listed as "build
             7 15 300 expansion": build_tree is called in process and
             prints its node and leaf counts, since printing the tree's
             JSON would hold every leaf's digits at once and that, not
             the build, would set the peak.
             val-ladder is single
             values, which no perfbench workload asks for above n = 3000:
             val --p 3 --k 3 at n = 10^7, 10^15, 10^30, 10^60 with methods
             stirling, expansion and both, then val --p 2 --k 2 --method
             expansion on the 100- and 300-digit prefixes of the T_2(2)
             chain.  The expansion engine only bounds a chain prefix from
             below, so those two exit 1 on both sides, and 10^15 does not
             extend the root digits of k - 1 in base 3, so its expansion
             call exits 2.
             The first call of each interpreter is cold.  Each call's
             stdout is hashed so both sides can be compared byte for byte,
             and a build call's counts are also kept as printed.
             Each call also records the interpreter's peak RSS so far
             (ru_maxrss) after it returns.

For every metric, for each ops group's total over its calls and for the
group's peak RSS (its last call's ru_maxrss), it writes the median and
quartiles of each side, the change/parent ratio of each pair and of the
medians, and the number of pairs in which the change was lower (faster),
to BENCH_<label>.json in the change checkout.  The schema is that of BENCH_row-blocks.json plus
the per-pair ratios.  A run that exits non-zero or prints no JSON result
is recorded as it is (its exit code and an empty result) and the pairs go
on; it shows up as all_operations_correct / all_exit_0 false.

Stale bytecode on one side skews its timings, so the script refuses to
start (exit 2) while either checkout has a __pycache__ under src/ or
perfbench/, and neither it nor its children write any.

Example:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --label tree-fixed-costs \\
        --perfbench tree-dual:1501-1512 deep-expansion:1501-1505 \\
        --ops tree-dual:10 verify-suite:8 val-ladder:10

The tree-dual, verify-suite and deep-expansion ops commands are those of
perfbench/workloads.py beside this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # nor does this script's own import of workloads
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
import workloads  # noqa: E402

# perfbench workloads, deep-expansion's calls alone, the deep walks, the deep
# caps and the val ladder
OPS_GROUPS = ("tree-dual", "verify-suite", "deep-expansion", "vpx-walks", "deep-walk",
              "deep-cap", "deep-memory", "val-ladder")
OPS_SEED = 1  # the seed of the workloads' operations
FIXED_OPS = {
    "deep-walk": ("fseq --terms 600", "tree --p 3 --k 14 --max-depth 60 --engine expansion",
                  "tree --p 7 --k 5 --max-depth 40 --engine expansion",
                  "tree --p 11 --k 11 --max-depth 40 --engine expansion"),
    "deep-cap": ("tree --p 5 --k 2 --max-depth 1000 --engine expansion",
                 "tree --p 13 --k 8 --max-depth 200 --engine expansion",
                 "tree --p 2 --k 5 --max-depth 200 --engine expansion",
                 "tree --p 3 --k 7 --max-depth 100 --engine stirling",
                 "tree --p 3 --k 9 --max-depth 1000 --engine expansion"),
    "deep-memory": ("build 7 15 300 expansion",),
}
# deep-cap's vp_H_expansion call: n has DEEP_LEAF_DIGITS base-3 digits, the
# smallest leaf of T_3(9) at depth DEEP_LEAF_DEPTH followed by seeded digits
DEEP_LEAF_DIGITS, DEEP_LEAF_DEPTH = 1000, 141
LADDER_N = (10 ** 7, 10 ** 15, 10 ** 30, 10 ** 60)
LADDER_METHODS = ("stirling", "expansion", "both")
CHAIN_DIGITS = (100, 300)

# Run in a fresh interpreter: time each cli.main call (or, for "vpx N K P",
# each vp_H_expansion call, and for "build P K DEPTH ENGINE", each
# build_tree call) after the import, and read the peak RSS after it.
OPS_CHILD = r"""
import contextlib, hashlib, io, json, resource, sys, time
from padicharm import cli, expansion, tree
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = 0
        if argv[0] == "vpx":
            v = expansion.vp_H_expansion(*map(int, argv[1:]))
            print(json.dumps([v.exact_valuation, v.lower_bound]), end="")
        elif argv[0] == "build":
            t = tree.build_tree(*map(int, argv[1:4]), engine=argv[4])
            print(json.dumps({"nodes": t.node_count, "leaves": len(t.leaves)}), end="")
        else:
            rc = cli.main(argv)
        s = time.perf_counter() - t0
    rec = {"rc": rc, "seconds": s,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}
    if argv[0] == "build":
        rec["stdout"] = buf.getvalue()
    out.append(rec)
print(json.dumps(out))
"""

SIDES = ("parent", "change")


def ops_commands(group: str) -> list[list[str]]:
    if group == "val-ladder":
        return val_ladder()
    if group == "deep-cap":
        return [deep_leaf_vpx()] + [argv.split() for argv in FIXED_OPS[group]]
    if group in FIXED_OPS:
        return [argv.split() for argv in FIXED_OPS[group]]
    if group == "vpx-walks":
        return [argv for argv in ops_commands("deep-expansion") if argv[0] == "vpx"]
    return [op["argv"] if "argv" in op else ["vpx", *map(str, op["vpx"])]
            for op in workloads.make_ops(group, OPS_SEED, workloads.load_golden())]


def import_own_src() -> None:
    """Put this script's own checkout's src/ first on the path, so that
    the commands it derives are the same for both sides."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def deep_leaf_vpx() -> list[str]:
    import_own_src()
    from padicharm.core import ilog
    from padicharm.tree import build_tree

    tree = build_tree(3, 9, DEEP_LEAF_DEPTH, engine="expansion")
    # the smallest leaf as long as the deepest level's nodes, of `length` digits
    length = ilog(tree.levels[-1][0], 3) + 1
    n = next(leaf for leaf in tree.leaves if ilog(leaf, 3) + 1 == length)
    rng = random.Random(DEEP_LEAF_DIGITS)
    for _ in range(DEEP_LEAF_DIGITS - length):
        n = 3 * n + rng.randrange(3)
    return ["vpx", str(n), "9", "3"]


def val_ladder() -> list[list[str]]:
    import_own_src()
    from padicharm.tree import f_sequence

    out = [["val", "--p", "3", "--k", "3", "--n", str(n), "--method", method]
           for n in LADDER_N for method in LADDER_METHODS]
    bits = "".join(map(str, f_sequence(max(CHAIN_DIGITS) - 1)))
    out += [["val", "--p", "2", "--k", "2", "--n", str(int(bits[:d], 2)), "--method", "expansion"]
            for d in CHAIN_DIGITS]
    return out


def ops_pairs_of(spec: str) -> tuple[str, int]:
    """'verify-suite:8' -> ('verify-suite', 8)."""
    group, _, pairs = spec.partition(":")
    if group not in OPS_GROUPS or not pairs.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected GROUP:PAIRS with GROUP one of {', '.join(OPS_GROUPS)}, got {spec!r}")
    return group, int(pairs)


def seeds_of(spec: str) -> tuple[str, list[int]]:
    """'tree-dual:1501-1510' or 'verify-suite:7,9' -> (workload, seeds)."""
    workload, _, seeds = spec.partition(":")
    out = []
    for part in seeds.split(","):
        first, _, last = part.partition("-")
        out.extend(range(int(first), int(last or first) + 1))
    if not workload or not out:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST-LAST, got {spec!r}")
    return workload, out


def order(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 else SIDES[::-1]


def run_seconds(root: str) -> float:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def last_json(stdout: str):
    """The JSON value on the last line of stdout, or None if there is none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def bytecode_caches(*roots: str) -> list[str]:
    """The __pycache__ directories under src/ and perfbench/ of each root."""
    return [os.path.join(path, "__pycache__")
            for root in roots for top in ("src", "perfbench")
            for path, dirs, _ in os.walk(os.path.join(root, top)) if "__pycache__" in dirs]


def run_perfbench(root: str, workload: str, seed: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(run_seconds(root)), "--trace", "0"],
        cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True)
    result = last_json(proc.stdout)
    return proc.returncode, result if isinstance(result, dict) else {}


def run_ops(root: str, commands: list[list[str]]) -> list[dict]:
    """One record per command; if the child fails, each carries its exit
    code and no timing or hash."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", OPS_CHILD, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    result = last_json(proc.stdout)
    if proc.returncode == 0 and isinstance(result, list) and len(result) == len(commands):
        return result
    print(f"# ops child in {root} failed: exit {proc.returncode}", file=sys.stderr, flush=True)
    return [{"rc": proc.returncode or 1, "seconds": None, "maxrss_mb": None,
             "stdout_sha256": None} for _ in commands]


def compare(parent: list, change: list, unit: str = "", won: str = "pairs_change_lower") -> dict:
    """Both sides' medians and quartiles, per-pair ratios and the pairs the
    change was lower in, over the pairs where both sides gave a value."""
    pairs = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    if not pairs:
        return {"pairs": 0}
    sides = {"parent": [a for a, _ in pairs], "change": [b for _, b in pairs]}
    out: dict = {"pairs": len(pairs)}
    for side, xs in sides.items():
        q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        out[f"{side}_median{unit}"] = round(statistics.median(xs), 5)
        out[f"{side}_quartiles{unit}"] = [round(q[0], 5), round(q[2], 5)]
    pm, cm = statistics.median(sides["parent"]), statistics.median(sides["change"])
    out["median_ratio_change_over_parent"] = round(cm / pm, 4) if pm else None
    out["pair_ratios"] = [round(b / a, 4) if a else None for a, b in pairs]
    out[won] = sum(b < a for a, b in pairs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json in --change")
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--claim", default="", help="the gain the change claims, if any")
    ap.add_argument("--perfbench", nargs="*", type=seeds_of, default=[],
                    metavar="WORKLOAD:SEEDS", help="one pair per seed, e.g. tree-dual:1501-1510")
    ap.add_argument("--ops", nargs="*", type=ops_pairs_of, default=[], metavar="GROUP:PAIRS",
                    help="pairs of in-process timings of a workload's commands, "
                         "e.g. verify-suite:8")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    stale = bytecode_caches(*roots.values())
    for path in stale:
        print(f"bench_pairs: remove the bytecode cache {path} first", file=sys.stderr)
    if stale:
        return 2

    ops_runs = []
    for group, pairs in args.ops:
        commands = ops_commands(group)
        for pair in range(1, pairs + 1):
            first = order(pair)[0]
            for side in order(pair):
                for argv_, res in zip(commands, run_ops(roots[side], commands)):
                    ops_runs.append({"pair": pair, "side": side, "first": first,
                                     "group": group, "argv": " ".join(argv_), **res})
            print(f"# ops {group} pair {pair} done", file=sys.stderr, flush=True)

    perfbench_runs = []
    for workload, seeds in args.perfbench:
        for pair, seed in enumerate(seeds, 1):
            first = order(pair)[0]
            for side in order(pair):
                rc, result = run_perfbench(roots[side], workload, seed)
                perfbench_runs.append({"side": side, "first": first, "workload": workload,
                                       "seed": seed, "exit": rc, "result": result})
                wall = result.get("metrics", {}).get("wall_ref", {}).get("value")
                print(f"# {workload} seed {seed} {side}: exit {rc} wall_ref {wall}",
                      file=sys.stderr, flush=True)

    summary: dict = {"ops": {}, "perfbench": {}}
    for group, argv_ in dict.fromkeys((r["group"], r["argv"]) for r in ops_runs):
        runs = {s: [r for r in ops_runs if (r["group"], r["argv"]) == (group, argv_)
                    and r["side"] == s] for s in SIDES}
        entry = compare(*([r["seconds"] for r in runs[s]] for s in SIDES),
                        unit="_s", won="pairs_change_faster")
        entry["stdout_sha256_all_equal"] = len(
            {r["stdout_sha256"] for s in SIDES for r in runs[s]}) == 1
        entry["all_exit_0"] = all(r["rc"] == 0 for s in SIDES for r in runs[s])
        summary["ops"].setdefault(group, {})[argv_] = entry
    for group, pairs in args.ops:
        totals = {s: [] for s in SIDES}
        for pair in range(1, pairs + 1):
            for s in SIDES:
                xs = [r["seconds"] for r in ops_runs
                      if (r["group"], r["side"], r["pair"]) == (group, s, pair)]
                totals[s].append(None if None in xs else sum(xs))
        summary["ops"][group]["total"] = compare(*totals.values(), unit="_s",
                                                 won="pairs_change_faster")
        peaks = {s: [[r["maxrss_mb"] for r in ops_runs
                      if (r["group"], r["side"], r["pair"]) == (group, s, pair)][-1]
                     for pair in range(1, pairs + 1)] for s in SIDES}
        summary["ops"][group]["peak_rss_mb"] = compare(*peaks.values())
    for workload, _ in args.perfbench:
        runs = {s: [r for r in perfbench_runs if r["workload"] == workload and r["side"] == s]
                for s in SIDES}
        entry = {}
        metrics = dict.fromkeys(m for s in SIDES for r in runs[s]
                                for m in r["result"].get("metrics", {}))
        for metric in metrics:
            entry[metric] = compare(*([r["result"].get("metrics", {}).get(metric, {}).get("value")
                                       for r in runs[s]] for s in SIDES))
        entry["all_operations_correct"] = all(
            r["exit"] == 0 and r["result"].get("correct") for s in SIDES for r in runs[s])
        summary["perfbench"][workload] = entry

    doc = {
        "label": args.label,
        "change": args.note,
        "host": {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "commands": {
            "ops": "python3 -c OPS_CHILD (scripts/bench_pairs.py) with PYTHONPATH=SIDE/src: "
                   "one fresh interpreter per side, group and pair runs padicharm.cli.main on "
                   "the group's commands in turn (vp_H_expansion on a vpx, build_tree on a "
                   "build); seconds are the in-process wall time of each call, after import, "
                   "and maxrss_mb the interpreter's ru_maxrss after it: "
                   + "; ".join(f"{group}: " + ", ".join(" ".join(a) for a in ops_commands(group))
                               for group, _ in args.ops),
            "perfbench": "python3 perfbench/run.py --workload W --seed S --seconds T "
                         "--trace 0, run in each side's own checkout, T being run_seconds of "
                         "its BENCHMARK.json: "
                         + ", ".join(f"{s} {run_seconds(roots[s]):g}" for s in SIDES),
        },
        "order": "pairs alternate which side runs first (the parent in odd pairs); "
                 + "".join(f"{g} ops pairs 1-{n}; " for g, n in args.ops) + "perfbench seeds "
                 + "; ".join(f"{w} {s[0]}-{s[-1]}" for w, s in args.perfbench),
        "claim": args.claim,
        "summary": summary,
        "ops_runs": ops_runs,
        "perfbench_runs": perfbench_runs,
    }
    with open(os.path.join(roots["change"], f"BENCH_{args.label}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
