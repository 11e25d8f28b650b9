import importlib.util
import json
import os
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")


@pytest.fixture
def bench_pairs(monkeypatch):
    # the script turns off bytecode writing for its process; keep that local
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_checkouts_with_bytecode_caches(tmp_path, capsys, bench_pairs):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "src" / "padicharm").mkdir(parents=True)
        (root / "perfbench").mkdir()
    argv = ["--parent", str(parent), "--change", str(change), "--label", "x"]
    assert bench_pairs.bytecode_caches(str(parent), str(change)) == []
    stale = [parent / "src" / "padicharm" / "__pycache__", change / "perfbench" / "__pycache__"]
    for path in stale:
        path.mkdir()
    assert bench_pairs.bytecode_caches(str(parent), str(change)) == list(map(str, stale))
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert all(str(path) in err for path in stale)
    assert not (change / "BENCH_x.json").exists()


def test_vpx_walks_are_the_deep_expansion_calls_alone(bench_pairs):
    deep = bench_pairs.ops_commands("deep-expansion")
    walks = bench_pairs.ops_commands("vpx-walks")
    assert len(walks) == 40
    assert walks == [argv for argv in deep if argv[0] == "vpx"]


def test_deep_leaf_vpx_runs_through_the_smallest_deepest_leaf(bench_pairs):
    from padicharm.core import ilog
    from padicharm.tree import build_tree

    argv = bench_pairs.deep_leaf_vpx()
    assert argv[0] == "vpx" and argv[2:] == ["9", "3"]
    n = int(argv[1])
    assert ilog(n, 3) + 1 == bench_pairs.DEEP_LEAF_DIGITS
    tree = build_tree(3, 9, bench_pairs.DEEP_LEAF_DEPTH, engine="expansion")
    length = len(tree.constants.root_digits) + bench_pairs.DEEP_LEAF_DEPTH
    deepest = [leaf for leaf in tree.leaves if ilog(leaf, 3) + 1 == length]
    assert n // 3 ** (bench_pairs.DEEP_LEAF_DIGITS - length) == deepest[0]


def test_deep_memory_is_one_build_alone(bench_pairs):
    assert "deep-memory" in bench_pairs.OPS_GROUPS
    assert bench_pairs.ops_pairs_of("deep-memory:3") == ("deep-memory", 3)
    assert bench_pairs.ops_commands("deep-memory") == [["build", "7", "15", "300", "expansion"]]


def test_ops_child_reports_its_peak_rss_and_build_counts(bench_pairs):
    from padicharm.tree import build_tree

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    commands = [["vpx", "5", "2", "2"], ["build", "3", "2", "32", "expansion"],
                ["fseq", "--terms", "2"]]
    records = bench_pairs.run_ops(root, commands)
    assert [r["rc"] for r in records] == [0, 0, 0]
    peaks = [r["maxrss_mb"] for r in records]
    assert 0 < peaks[0] <= peaks[1] <= peaks[2]  # the peak so far, after each call
    tree = build_tree(3, 2, 32, engine="expansion")
    assert records[1]["stdout"] == f'{{"nodes": {tree.node_count}, "leaves": {len(tree.leaves)}}}'
    assert "stdout" not in records[0] and "stdout" not in records[2]  # only hashed


def test_ops_summary_compares_each_groups_peak_rss(tmp_path, monkeypatch, bench_pairs):
    # the peak of a pair is its last call's, the interpreter's peak after the group
    roots = {side: tmp_path / side for side in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
        (root / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    peaks = {"parent": iter([100.0, 110.0]), "change": iter([40.0, 45.0])}

    def run_ops(root, commands):
        side = os.path.basename(root)
        return [{"rc": 0, "seconds": 1.0, "maxrss_mb": next(peaks[side]),
                 "stdout_sha256": "x"} for _ in commands]

    monkeypatch.setattr(bench_pairs, "run_ops", run_ops)
    assert bench_pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                             "--label", "x", "--ops", "deep-memory:2"]) == 0
    doc = json.loads((roots["change"] / "BENCH_x.json").read_text())
    peak = doc["summary"]["ops"]["deep-memory"]["peak_rss_mb"]
    assert (peak["parent_median"], peak["change_median"]) == (105.0, 42.5)
    assert peak["pairs_change_lower"] == 2
