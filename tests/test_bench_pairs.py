import importlib.util
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
