"""Record golden.json: the answers the benchmark's operations must give.

Run it from the repository root against code whose answers are trusted:

    PYTHONPATH=src python3 perfbench/record_golden.py

It stores tree digests and dual-check floors, the expansion trees with the
valuation fixed by each leaf, the branch bits, the valuation of every key
in the val-stream pool, and the reports of the unseeded verify commands.
A run that changes these answers is a wrong answer, not a new baseline.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from workloads import pair_key  # noqa: E402


def cli_out(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"padicharm {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def main() -> int:
    from padicharm import cli, expansion, valuation

    golden: dict = {"dual_trees": {}, "expansion_trees": {}, "val": {}, "verify": {}}
    for k in workloads.TREE_DUAL_KS:
        doc = json.loads(cli_out(cli, ["tree", "--p", "3", "--k", str(k)]))
        golden["dual_trees"][pair_key(3, k)] = {
            "digest": workloads.tree_digest(doc),
            "node_count": doc["node_count"],
            "dual_checks": doc["dual_checks"],
        }

    for p, k in workloads.EXPANSION_TREES:
        argv = ["tree", "--p", str(p), "--k", str(k), "--engine", "expansion"]
        doc = json.loads(cli_out(cli, argv))
        leaf_vals = {}
        for leaf in doc["leaves"]:
            n, s = workloads.value_of(leaf, p), len(leaf) - 1
            verdict = expansion.vp_H_expansion(n, k, p)
            if not verdict.is_exact:
                raise SystemExit(f"leaf {leaf} of T_{p}({k}) does not pin a valuation")
            if n <= 20_000 and valuation.vp_H(n, k, p) != verdict.value:
                raise SystemExit(f"engines disagree on leaf {leaf} of T_{p}({k})")
            leaf_vals[",".join(map(str, leaf))] = verdict.value - doc["U"] + k * s
        golden["expansion_trees"][pair_key(p, k)] = {
            "digest": workloads.tree_digest(doc),
            "dual_checks": doc["dual_checks"],
            "U": doc["U"],
            "levels": doc["levels"],
            "leaf_sum_valuation": leaf_vals,
        }

    golden["fseq"] = json.loads(cli_out(cli, ["fseq", "--terms", str(workloads.FSEQ_TERMS)]))

    for p in workloads.VAL_PRIMES:
        for k in workloads.VAL_KS:
            golden["val"][pair_key(p, k)] = {
                str(n): json.loads(cli_out(cli, [
                    "val", "--p", str(p), "--n", str(n), "--k", str(k)]))["valuation"]
                for n in workloads.val_pool(p, k)
            }

    for cmd in workloads.VERIFY_COMMANDS:
        if None not in cmd:
            golden["verify"][" ".join(cmd)] = cli_out(cli, ["verify", *cmd]).strip()

    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
