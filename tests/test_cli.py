import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from padicharm import checks, cli
from padicharm.cli import CacheRecord, ValCache, CacheIntegrityError, main
from padicharm.core import to_digits
from padicharm.tree import build_tree
from padicharm.report import CheckReport


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_val_known_values(capsys):
    rc, out, _ = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2")
    assert rc == 0
    assert json.loads(out) == {"p": 2, "n": 7, "k": 2, "valuation": -2, "method": "both"}
    rc, out, _ = run(capsys, "val", "--p", "2", "--n", "3", "--k", "2")
    assert json.loads(out)["valuation"] == 0
    rc, out, _ = run(capsys, "val", "--p", "5", "--n", "4", "--k", "1")
    assert json.loads(out)["valuation"] == 2


@pytest.mark.parametrize("method", ["exact", "stirling", "expansion", "both"])
def test_val_methods_agree(capsys, method):
    # vp_2(H(20, 2)) = vp_2(665690574539 / 117327450240) = -7
    rc, out, _ = run(capsys, "val", "--p", "2", "--n", "20", "--k", "2", "--method", method)
    assert rc == 0
    assert json.loads(out)["valuation"] == -7


def test_val_usage_error(capsys):
    rc, _, _ = run(capsys, "val", "--p", "2", "--n", "3")
    assert rc == 2
    rc, _, err = run(capsys, "val", "--p", "4", "--n", "3", "--k", "2")
    assert rc == 2 and "usage error" in err


def test_tree_json_and_byte_stability(capsys):
    rc, out1, _ = run(capsys, "tree", "--p", "3", "--k", "2")
    rc2, out2, _ = run(capsys, "tree", "--p", "3", "--k", "2")
    assert rc == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "complete"
    assert doc["node_count"] == 8
    assert doc["built_at"] is None
    assert doc["levels"][0] == [[1]]


@pytest.mark.parametrize("argv, digest", [
    ("tree --p 3 --k 9 --max-depth 60 --engine expansion",
     "57d1a4b8b8308eca0cfb2ecb50164cf91779ef588c84ffb93f696834ef399f93"),
    ("tree --p 3 --k 14 --max-depth 60 --engine expansion",
     "0ca04669a73db6d04ae07ae18ed408d34203c34afb38f10f4eaecf632da2e0f7"),
    ("tree --p 7 --k 5 --max-depth 40 --engine expansion",
     "d450678ab5f910e56fcaff52575e9a97334acea52960c392770624d9b89bed92"),
    ("fseq --terms 300",
     "002180da2e0b2984fd0a40425e3dbb7bf34cb126a117ca84dc8769d257b7a3cc"),
])
def test_deep_walk_outputs_are_pinned(capsys, argv, digest):
    # the growing trees and the branch bits, byte for byte: pruning the
    # walk's h' tables to the budgets it reads must not move one node
    rc, out, _ = run(capsys, *argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("tree --p 3 --k 2",
     "dd2078af26f2f9a643dfc7692dda5d0bdf2b4850e40366d21a34f22b7b75f493"),
    ("tree --p 3 --k 2 --format dot",
     "b36a9c19eeff1756a6af0c79ee0a82a3b0e9b582b83971fcb1acfb3480b58407"),
    ("tree --p 3 --k 3",
     "daca221bf263a5ec9b171786aefbcc28d97ca6aa6d6720f926b4209c8143cf6d"),
    ("tree --p 3 --k 3 --format dot",
     "2e6652a1f045f122190a8b39207a9567ede4fa6cc7c9dca185a735fa2ac7d100"),
    ("tree --p 3 --k 4",
     "eac0355044c13c00933418122c22ea3f0ad49eb0b47956e249a08cd8a67575c1"),
    ("tree --p 3 --k 4 --format dot",
     "071c0c6ad176f4e7854db532c5905e0fbf93df46b34f7b400ac3794922a5074c"),
    ("tree --p 3 --k 5",
     "76022277ade08be6eabce1b60b906dbe430c234829fc974a310d91830e6427f6"),
    ("tree --p 3 --k 5 --format dot",
     "8fd2654697e441856a29c6ef67f972e7c9e2f13fa2aef14d01f9b009e501f015"),
    ("tree --p 3 --k 6",
     "7a7ce11e4e7888aaa21f5dd7a25c12f663f7849804eb25e53025bede50345614"),
    ("tree --p 3 --k 6 --format dot",
     "5c6afc525db37ac7c65eebb2ace2a3c7969f9a5ab2e7ab87d7b55783e47b7087"),
    ("tree --p 3 --k 7",
     "7953e3a0fb2644f2be30bb0e8ee7bddb7d9fafc44fde4cacc2374f5d81faa1ae"),
    ("tree --p 3 --k 7 --format dot",
     "e394cb030820b1dc75e9cf79aee720af856f994b81da619ee44ed182774a0a85"),
    ("tree --p 3 --k 8",
     "87a5ed0e5c9227e84a91f9ba68a72ad0993f908e2cb8c9c76bc800e40fbf29f4"),
    ("tree --p 3 --k 8 --format dot",
     "014eb6b6e3c50b8357a4d23936a49542a8bdd2ea4276f05d6d60a0fe67f0198d"),
    ("tree --p 5 --k 2",
     "df46d4e72d3a9e905b96f378bd76135e679024b40d479b68337b18df08febbfa"),
    ("tree --p 5 --k 2 --format dot",
     "49ca4b9dd6ab6eebcc20bef2f3531ecdd8e7f2e754bec543bf3ac410f25a868b"),
    ("tree --p 7 --k 5 --max-depth 12 --engine expansion",
     "c2033ef4f4d1c59dc987ec8bdbceb738cf20685dd3b174c89b474ac3b0edfe50"),
    ("tree --p 11 --k 11 --max-depth 12 --format dot",
     "5748949ece8391b236734f51436021ef095375a55ac6d03d358a54ccfa50d1ab"),
])
def test_tree_outputs_are_pinned(capsys, argv, digest):
    # tree JSON and DOT byte for byte: levels and leaves are written in the
    # order build_tree made them, with no re-sort
    rc, out, _ = run(capsys, *argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tree_dot_output(capsys):
    rc, out, _ = run(capsys, "tree", "--p", "3", "--k", "5", "--format", "dot")
    assert rc == 0
    assert out.startswith("digraph ptree {")
    # 7 solid nodes for the complete (3, 5) tree
    node_lines = [
        l for l in out.splitlines()
        if l.endswith('";') and "->" not in l and "style" not in l
    ]
    assert len(node_lines) == 7
    assert '  "11";' in out.splitlines()


@pytest.mark.parametrize("p, k, depth, engine", [
    (2, 3, 20, "both"), (3, 5, 32, "both"), (5, 4, 20, "stirling"), (7, 5, 20, "expansion"),
    (11, 11, 8, "expansion"), (13, 8, 12, "both"),
])
def test_printed_digits_are_those_of_the_tree_ints(p, k, depth, engine):
    # tree_document and tree_dot spell each node from its parent's
    # spelling; the oracle spells each int of the PTree on its own
    tree = build_tree(p, k, depth, engine=engine)
    nodes = [n for level in tree.levels for n in level]
    assert len(tree.levels) > 3 and tree.leaves

    def digits(n):
        return list(to_digits(n, p))

    doc = cli.tree_document(tree)
    assert doc["levels"] == [[digits(n) for n in level] for level in tree.levels]
    assert doc["leaves"] == [digits(n) for n in tree.leaves]

    def label(n):
        return ("" if p <= 10 else ".").join(map(str, digits(n)))

    lines = cli.tree_dot(tree).splitlines()
    assert [re.findall(r'"([^"]*)"', line) for line in lines[2:-1]] == (
        [[label(n)] for n in nodes + tree.leaves]
        + [[label(n // p), label(n)] for n in nodes[1:] + tree.leaves])


def test_tree_depth_capped_chain(capsys):
    rc, out, _ = run(capsys, "tree", "--p", "2", "--k", "2", "--max-depth", "5")
    doc = json.loads(out)
    assert [len(level) for level in doc["levels"]] == [1] * 6
    assert doc["status"] == "truncated"
    assert doc["truncated_at"] == 5


def test_closed_tree_costs_nothing_for_a_deep_cap(capsys):
    # T_3(7) closes at depth 11: a cap of 1000 levels must build the same
    # tree as the default 32, and about as fast, not carry 1000 digits
    start = time.process_time()
    rc, out, _ = run(capsys, *"tree --p 3 --k 7 --max-depth 1000 --engine expansion".split())
    seconds = time.process_time() - start
    assert rc == 0
    _, shallow, _ = run(capsys, *"tree --p 3 --k 7 --engine expansion".split())
    deep, shallow = json.loads(out), json.loads(shallow)
    for field in ("levels", "leaves", "node_count", "status"):
        assert deep[field] == shallow[field]
    assert deep["node_count"] == 43
    assert seconds < 5  # a walk carrying 1000 digits took over 20 s


def test_fseq(capsys):
    rc, out, _ = run(capsys, "fseq", "--terms", "2")
    assert rc == 0
    assert out.strip() == '"110"'


def test_scan(capsys):
    rc, out, _ = run(capsys, "scan", "--max-n", "10")
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [{"n": 1, "k": 1}, {"n": 3, "k": 2}]
    # scan and verify integral-scan share one enumeration and its refusal
    rc, out, err = run(capsys, "scan", "--max-n", "0")
    assert rc == 2 and out == "" and err == "usage error: n_max must be positive, got 0\n"


def test_verify_pass_and_fail_exit_codes(capsys):
    rc, out, _ = run(capsys, "verify", "lengyel", "--m-max", "6")
    assert rc == 0
    assert json.loads(out)["passed"] is True
    rc, _, err = run(capsys, "verify", "bogus")
    assert rc == 2
    assert "valid names" in err


def test_verify_runs_a_row_added_only_to_the_check_table(capsys, monkeypatch):
    # the CLI keeps no list of its own: names, the flags a check reads and
    # the required --seed all come from checks.CHECKS, even a flag that no
    # other row reads
    calls = []

    def dummy(seed, depth=40):
        calls.append((depth, seed))
        return CheckReport(claim_id="dummy", parameters={"depth": depth}, observed={},
                           bound=None, passed=seed != 13, seed=seed)

    row = checks.Check(dummy, {"seed": "seed", "depth": "depth"})
    monkeypatch.setitem(checks.CHECKS, "dummy", row)
    rc, _, err = run(capsys, "verify", "dummy")
    assert rc == 2 and "--seed" in err and calls == []
    rc, out, _ = run(capsys, "verify", "dummy", "--seed", "5", "--depth", "7")
    assert rc == 0 and calls == [(7, 5)]
    assert json.loads(out) == {"bound": None, "claim_id": "dummy", "observed": {},
                               "parameters": {"depth": 7}, "passed": True, "seed": 5,
                               "witness": None}
    rc, _, _ = run(capsys, "verify", "dummy", "--seed", "13")
    assert rc == 1 and calls[-1] == (40, 13)  # depth keeps the check's own default
    rc, _, err = run(capsys, "verify", "bogus")
    assert rc == 2 and err.rstrip().endswith("lower-bound-monitor, dummy")


def test_verify_help_lists_exactly_the_row_flags(capsys):
    # `verify NAME --help` lists the flags of NAME's row and no other, and
    # the check's signature holds each default, so a flag left out never
    # leaves a row short of an argument
    for name, check in checks.CHECKS.items():
        rc, out, _ = run(capsys, "verify", name, "--help")
        assert rc == 0 and out.startswith(f"usage: padicharm verify {name} "), name
        listed = set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"}
        assert listed == {"--" + flag.replace("_", "-") for flag in check.flags.values()}, name
        params = inspect.signature(check.run).parameters
        for kw in check.flags:
            assert params[kw].default is not inspect.Parameter.empty, (name, kw)


@pytest.mark.parametrize("check, p", [
    # each seeded check refuses p before it draws a sample; cpicong once
    # looped forever on p = 1 and crashed in randint on p <= 0
    pytest.param(check, p, id=p if check == "harm-count" else f"{check} {p}")
    for check, p in [("harm-count", "4"), ("harm-count", "1"), ("cpicong", "4"),
                     ("cpicong", "1"), ("cpicong", "0"), ("cpicong", "-3")]
])
def test_harm_count_refuses_a_non_prime_p(capsys, check, p):
    rc, out, err = run(capsys, "verify", check, "--p", p, "--seed", "1")
    assert rc == 2 and out == "" and err == f"usage error: p must be prime, got {p}\n"


@pytest.mark.parametrize("argv", [
    ("tree", "--p", "4", "--k", "2"),
    ("val", "--p", "4", "--n", "5", "--k", "2"),
    ("verify", "ubound", "--p", "4"),
], ids=" ".join)
def test_commands_refuse_a_non_prime_p_in_one_wording(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err == "usage error: p must be prime, got 4\n"


def readme_text():
    import padicharm

    readme = os.path.join(os.path.dirname(padicharm.__file__), "..", "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def test_readme_lists_the_check_table():
    text = readme_text()
    start = text.index("Check names for `verify`:") + len("Check names for `verify`:")
    sentence = text[start:text.index(".", start)]
    assert re.findall(r"`([a-z0-9-]+)`", sentence) == list(checks.CHECKS)


def test_readme_cli_examples_run(capsys):
    # every `padicharm ...` line of the README's CLI block, comments dropped
    block = readme_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("padicharm ")
    ]
    assert len(examples) == 8
    first_out = {}
    for argv in examples:
        rc, out, err = run(capsys, *argv)
        assert rc == 0, (argv, err)
        first_out.setdefault(argv[0], out)
    # the results the block annotates
    assert json.loads(first_out["val"])["valuation"] == -2
    assert json.loads(first_out["fseq"]).startswith("110")
    pairs = [(row["n"], row["k"]) for row in map(json.loads, first_out["scan"].splitlines())]
    assert pairs == [(1, 1), (3, 2)]


_UNREAD_FLAGS = [
    (("lengyel", "--p", "5", "--m-max", "3"), "--p"),
    (("integral-scan", "--seed", "4", "--max-n", "5"), "--seed"),
    (("structural", "--k", "3"), "--k"),
    (("corollary-2adic", "--seed", "1", "--p", "3"), "--p"),
    (("cpicong", "--p", "11", "--seed", "7", "--max-n", "9"), "--max-n"),
    (("lower-bound-monitor", "--a-samples", "2"), "--a-samples"),
]


@pytest.mark.parametrize("argv, flag", _UNREAD_FLAGS,
                         ids=[" ".join(argv) for argv, _ in _UNREAD_FLAGS])
def test_verify_refuses_a_flag_the_check_does_not_read(capsys, monkeypatch, argv, flag):
    ran = []
    check = checks.CHECKS[argv[0]]
    stub = dataclasses.replace(check, run=lambda **kw: ran.append(kw))
    monkeypatch.setitem(checks.CHECKS, argv[0], stub)
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out) == (2, "")
    error = err.splitlines()[-1]
    assert error.startswith(f"padicharm verify {argv[0]}: error:") and flag in error
    assert ran == []


def test_verify_randomized_requires_seed(capsys):
    rc, _, err = run(capsys, "verify", "cpicong")
    assert rc == 2 and "--seed" in err
    rc, out, _ = run(capsys, "verify", "cpicong", "--seed", "9", "--p", "5",
                     "--q-samples", "4", "--a-samples", "3")
    assert rc == 0


# reports as the Fraction-sum and exact_H_table references printed them
@pytest.mark.parametrize("argv, expected", [
    (("harm-count", "--p", "11", "--seed", "7"),
     '{"bound": "1.5 * y^(2/3) + 1", "claim_id": "harm-count", '
     '"observed": {"worst_count": 3}, "parameters": {"cases": 500, "p": 11, '
     '"x_max": 400}, "passed": true, "seed": 7, "witness": null}\n'),
    (("corollary-2adic", "--seed", "7"),
     '{"bound": "match: vp >= 1-s; mismatch at r: vp = r-2s", '
     '"claim_id": "corollary-2adic", "observed": {"exact_crossed": 145, '
     '"matched": 14, "mismatched": 500}, "parameters": {"S": 14, '
     '"exact_cross_max": 4096, "sample_count": 500}, "passed": true, '
     '"seed": 7, "witness": null}\n'),
], ids=["harm-count", "corollary-2adic"])
def test_verify_seeded_reports_are_pinned(capsys, argv, expected):
    rc, out, _ = run(capsys, "verify", *argv)
    assert rc == 0 and out == expected


def _recorded_verify_reports():
    """perfbench/golden.json's verify reports, keyed by the arguments after
    verify: every unseeded check at its defaults and at verify-suite's flags."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.load_golden()["verify"]


_RECORDED_VERIFY = _recorded_verify_reports()


@pytest.mark.parametrize("command", sorted(_RECORDED_VERIFY))
def test_verify_unseeded_reports_are_the_recorded_bytes(capsys, command):
    rc, out, _ = run(capsys, "verify", *shlex.split(command))
    assert rc == 0 and out == _RECORDED_VERIFY[command] + "\n"


def test_verify_monitor(capsys):
    rc, out, _ = run(capsys, "verify", "lower-bound-monitor", "--p", "2", "--k", "2",
                     "--max-n", "64")
    assert rc == 0
    assert json.loads(out)["observed"]["min_slack"] is not None


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "vals.jsonl"
    rc, out1, _ = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                      "--cache", str(cache))
    assert rc == 0
    lines = cache.read_text().splitlines()
    assert len(lines) == 1
    rc, out2, _ = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                      "--cache", str(cache))
    assert rc == 0 and json.loads(out2)["valuation"] == -2
    assert len(cache.read_text().splitlines()) == 1  # hit appends nothing


def test_cache_conflict_is_fatal(tmp_path, capsys):
    cache = tmp_path / "vals.jsonl"
    good = CacheRecord(p=2, n=7, k=2, valuation=-2, engine="both", guard=14)
    bad = CacheRecord(p=2, n=7, k=2, valuation=-1, engine="stirling", guard=14)
    store = ValCache(str(cache))
    store.put(good)
    with pytest.raises(CacheIntegrityError):
        store.put(bad)
    # a poisoned file is refused on load
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"p": 2, "n": 7, "k": 2, "valuation": -1,
                             "engine": "x", "guard": 1}) + "\n")
    rc, _, err = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                     "--cache", str(cache))
    assert rc == 1 and "conflicting" in err


def test_cache_hit_reports_stored_engine(tmp_path, capsys):
    cache = tmp_path / "vals.jsonl"
    rc, out, _ = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                     "--method", "stirling", "--cache", str(cache))
    assert rc == 0 and json.loads(out)["method"] == "stirling"
    rc, out, _ = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                     "--method", "exact", "--cache", str(cache))
    assert rc == 0
    assert json.loads(out) == {"p": 2, "n": 7, "k": 2, "valuation": -2, "method": "stirling"}


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"engine": "both", "guard": 14, "k": 2, "n": 9',  # torn mid-record
        json.dumps({"p": 2, "n": 9, "k": 2, "valuation": -3, "engine": "both",
                    "guard": 14}),  # complete JSON, torn before its newline
    ],
)
def test_cache_torn_final_line_is_refused(tmp_path, capsys, bad_line):
    cache = tmp_path / "vals.jsonl"
    rc, _, _ = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                   "--cache", str(cache))
    assert rc == 0
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(bad_line)
    before = cache.read_text()
    rc, out, err = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                       "--cache", str(cache))
    assert rc == 1 and out == ""
    assert f"error: cache {cache} line 2: torn record" in err
    assert cache.read_text() == before  # refused, not truncated


@pytest.mark.parametrize(
    "bad_line",
    [
        "[2, 7, 2]",
        '{"p": 2, "n": 9, "k": 2}',
        '{"p": 2, "n": 9, "k": 2, "valuation": "-3", "engine": "both", "guard": 14}',
        "not json at all",
    ],
)
def test_cache_malformed_line_names_file_and_line(tmp_path, capsys, bad_line):
    cache = tmp_path / "vals.jsonl"
    good = json.dumps({"p": 2, "n": 7, "k": 2, "valuation": -2, "engine": "both",
                       "guard": 14})
    cache.write_text(good + "\n\n" + bad_line + "\n" + good + "\n")
    rc, _, err = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                     "--cache", str(cache))
    assert rc == 1
    assert f"cache {cache} line 3: malformed record" in err
    with pytest.raises(CacheIntegrityError, match="line 3"):
        ValCache(str(cache))


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_val_refuses_a_cache_path_it_cannot_open(tmp_path, capsys, monkeypatch, where):
    # refused before any valuation runs, in one line that names the path
    path = tmp_path / "absent" / "vals.jsonl" if where == "missing-directory" else tmp_path
    ran = []
    monkeypatch.setattr(cli, "vp_H_with_guard", lambda *args: ran.append(args))
    rc, out, err = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                       "--cache", str(path))
    assert (rc, out, ran) == (2, "", [])
    assert err.startswith(f"usage error: cache {path} cannot be opened")
    assert err.count("\n") == 1


def test_cache_undecodable_line_names_file_and_line(tmp_path, capsys):
    cache = tmp_path / "vals.jsonl"
    good = b'{"engine": "both", "guard": 0, "k": 2, "n": 7, "p": 2, "valuation": -2}\n'
    cache.write_bytes(good + b'{"p": 2, "n": 9\xff}\n')
    rc, out, err = run(capsys, "val", "--p", "2", "--n", "7", "--k", "2",
                       "--cache", str(cache))
    assert rc == 1 and out == ""
    assert err.startswith(f"error: cache {cache} line 2: malformed record")
    assert cache.read_bytes() == good + b'{"p": 2, "n": 9\xff}\n'


_CACHE_RECORDS = st.lists(
    st.builds(
        CacheRecord,
        p=st.sampled_from([2, 3, 5, 7, 59]),
        n=st.integers(1, 10**12),
        k=st.integers(1, 200),
        valuation=st.integers(-10**30, 10**30),
        engine=st.text(max_size=12),
        guard=st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda rec: (rec.p, rec.n, rec.k),
)


@settings(max_examples=60, deadline=None)
@given(_CACHE_RECORDS)
def test_cache_file_round_trip(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vals.jsonl")
        store = ValCache(path)
        for rec in records:
            store.put(rec)
            store.put(rec)  # a repeated put appends nothing
        reopened = ValCache(path)
        for rec in records:
            assert reopened.get(rec.p, rec.n, rec.k) == rec
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    assert len(lines) == len(records)
    for line in lines:
        assert line.endswith("\n")
        assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"


def test_val_writes_the_pinning_v_max_as_guard(tmp_path, capsys):
    # guard is the v_max = A - kL of the Stirling row that pinned the value,
    # A the row's modulus digits: A = 4 pins vp_2(H(7, 2)) = -2, since
    # kL + vp = 2*2 - 2 < 4, so guard is 4 - 4 = 0; at (60000, 7, 3)
    # kL + vp = 70 - 59 = 11, so A escalates 4, 8, 16 and guard is 16 - 70
    cache = tmp_path / "vals.jsonl"
    for n, k, p, method in [(7, 2, 2, "both"), (60000, 7, 3, "stirling")]:
        rc, _, _ = run(capsys, "val", "--p", str(p), "--n", str(n), "--k", str(k),
                       "--method", method, "--cache", str(cache))
        assert rc == 0
    assert cache.read_text() == (
        '{"engine": "both", "guard": 0, "k": 2, "n": 7, "p": 2, "valuation": -2}\n'
        '{"engine": "stirling", "guard": -54, "k": 7, "n": 60000, "p": 3, "valuation": -59}\n'
    )


def test_cache_line_with_guard_field_still_loads(tmp_path, capsys):
    # the record layout written since the first release, guard field included
    cache = tmp_path / "vals.jsonl"
    line = '{"engine": "both", "guard": 14, "k": 2, "n": 9, "p": 2, "valuation": -5}\n'
    cache.write_text(line)
    assert ValCache(str(cache)).get(2, 9, 2) == CacheRecord(
        p=2, n=9, k=2, valuation=-5, engine="both", guard=14
    )
    rc, out, _ = run(capsys, "val", "--p", "2", "--n", "9", "--k", "2",
                     "--cache", str(cache))
    assert rc == 0 and json.loads(out)["valuation"] == -5
    assert cache.read_text() == line  # a hit appends nothing


def test_expansion_method_reports_lower_bound_failure(capsys):
    # n = 6 only admits a lower bound through the expansion route
    rc, _, err = run(capsys, "val", "--p", "2", "--n", "6", "--k", "2",
                     "--method", "expansion")
    assert rc == 1
    assert "lower" in err or "bounds" in err


@pytest.mark.parametrize("argv", [
    ("val", "--p", "4", "--n", "3", "--k", "2"),                     # p not prime
    ("val", "--p", "2", "--n", "3", "--k", "5"),                     # k > n
    ("val", "--p", "3", "--n", "2", "--k", "2", "--method", "expansion"),
    ("tree", "--p", "3", "--k", "1"),
    ("fseq", "--terms", "-1"),
    ("verify", "corollary-2adic", "--seed", "1", "--terms", "0"),
    ("verify", "cpicong", "--seed", "1", "--q-samples", "0"),
    ("verify", "integral-scan", "--max-n", "0"),
    ("verify", "harm-count", "--seed", "1", "--samples", "0"),
    ("verify", "cpicong", "--seed", "1", "--a-samples", "0"),
])
def test_argument_errors_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ("val", "--p", "2", "--n", "5000", "--k", "2", "--method", "exact"),
    ("scan", "--max-n", "5000"),
])
def test_size_cap_exits_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "exceeds exact-arithmetic cap" in err


@pytest.mark.parametrize("method", ["both", "stirling"])
def test_val_single_values_take_no_row_cap(capsys, method):
    # n = 10^20 + 12345 lies far past the sweep cap; the row jumps aligned
    # blocks instead of stepping through every integer below n
    rc, out, err = run(capsys, "val", "--p", "3", "--n", "100000000000000012345",
                       "--k", "3", "--method", method)
    assert rc == 0 and err == "" and json.loads(out)["valuation"] == -120


def test_expansion_method_has_no_row_cap(capsys):
    rc, out, _ = run(capsys, "val", "--p", "3", "--n", str(10 ** 30), "--k", "3",
                     "--method", "expansion")
    assert rc == 0 and json.loads(out)["valuation"] == -185


def test_parser_errors_exit_2(capsys):
    rc, _, err = run(capsys, "val", "--p", "2", "--n", "3")  # --k missing
    assert rc == 2 and "--k" in err
    rc, _, _ = run(capsys, "tree", "--p", "3", "--k", "2", "--engine", "bogus")
    assert rc == 2


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "tree", "--p", "3", "--k", "2")[0] == 0
    assert run(capsys, "val", "--p", "2", "--n", "7", "--k", "2")[0] == 0
    assert run(capsys, "tree", "--p", "3")[0] == 2
    assert run(capsys, "fseq", "--terms", "3")[0] == 0
    info = cli._build_parser.cache_info()
    assert info.misses == 1 and info.hits == 3


def fresh_parser_output(capsys, argv):
    """Exit code and output of a parser built for this call alone."""
    with pytest.raises(SystemExit) as exc:
        cli._build_parser.__wrapped__().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["tree", "--p", "3"], ["bogus"], ["--help"],
                                  ["verify", "--help"]])
def test_reused_parser_reports_like_a_fresh_one(capsys, argv):
    assert run(capsys, "tree", "--p", "3", "--k", "2")[0] == 0
    assert run(capsys, "val", "--p", "4", "--n", "3", "--k", "2")[0] == 2
    assert run(capsys, *argv) == fresh_parser_output(capsys, argv)
    assert run(capsys, *argv) == fresh_parser_output(capsys, argv)


def test_commands_are_looked_up_at_call_time(capsys, monkeypatch):
    assert run(capsys, "tree", "--p", "3", "--k", "2")[0] == 0
    seen = []

    def traced(args):
        seen.append((args.p, args.k))
        return 7

    monkeypatch.setattr(cli, "cmd_tree", traced)
    assert run(capsys, "tree", "--p", "3", "--k", "4") == (7, "", "")
    assert seen == [(3, 4)]


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(S):
        raise ValueError("internal fault")

    monkeypatch.setattr("padicharm.cli.f_sequence", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["fseq", "--terms", "2"])
    assert "usage error" not in capsys.readouterr().err


def test_internal_value_error_exits_1_with_a_traceback():
    import padicharm

    src = os.path.dirname(os.path.dirname(padicharm.__file__))
    script = (
        "import sys, padicharm.cli as cli\n"
        "def broken(S): raise ValueError('internal fault')\n"
        "cli.f_sequence = broken\n"
        "sys.exit(cli.main(['fseq', '--terms', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "ValueError: internal fault" in proc.stderr
    assert "usage error" not in proc.stderr


def test_p59_exponent_runs_where_mpmath_cannot_be_imported():
    # padicharm needs only the standard library; a None entry in
    # sys.modules makes every import of mpmath raise ImportError
    import padicharm

    src = os.path.dirname(os.path.dirname(padicharm.__file__))
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import padicharm.cli as cli\n"
        "sys.exit(cli.main(['verify', 'p59-exponent']))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        '{"bound": 0.835, "claim_id": "p59-exponent", "observed": {"argmax": 59, '
        '"g_max": 0.8340563694875432, "runner_up_gap": 0.0015399426604084162}, '
        '"parameters": {"precision_bits": 80, "prime_bound": 1000}, "passed": true, '
        '"seed": null, "witness": null}\n'
    )


def test_only_verify_loads_the_check_table():
    # tree, val and fseq never import padicharm.checks; verify does
    import padicharm

    src = os.path.dirname(os.path.dirname(padicharm.__file__))
    script = (
        "import contextlib, io, sys, padicharm.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['val', '--p', '3', '--n', '10', '--k', '2'],\n"
        "                 ['tree', '--p', '3', '--k', '2'], ['fseq', '--terms', '3']):\n"
        "        assert cli.main(argv) == 0\n"
        "    print('padicharm.checks' in sys.modules, file=sys.stderr)\n"
        "    assert cli.main(['verify', 'lengyel', '--m-max', '3']) == 0\n"
        "print('padicharm.checks' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stderr, proc.stdout) == ("False\n", "True\n")
