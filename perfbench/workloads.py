"""Workload inputs and the answers their operations must produce.

Every workload is a list of operations.  An operation is either a
``padicharm`` command line, run through ``padicharm.cli.main``, or a
direct ``vp_H_expansion(n, k, p)`` call.  Inputs are a pure function of
the workload name and the seed, so the parent process and each worker
derive the same list independently.

Answers come from three places:

* values the README pins (tree sizes, the leading branch bits, the
  integral pairs), held here as constants;
* ``golden.json``, recorded from the seed code by ``record_golden.py``;
* small reference oracles in this file for the three seeded checks,
  whose observed fields depend on the seed and so cannot be recorded.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

WORKLOADS = ("tree-dual", "deep-expansion", "val-stream", "verify-suite")

# Pinned by the README: node counts of the complete 3-adic trees, the
# leading 2-adic branch bits, and the only integral H(n, k) for n <= 40.
README_T3_NODES = {2: 8, 3: 24, 4: 16, 5: 7, 6: 23, 7: 43}
README_FSEQ_PREFIX = "110"
README_INTEGRAL_PAIRS = [[1, 1], [3, 2]]

TREE_DUAL_KS = (2, 3, 4, 5)

FSEQ_TERMS = 64
EXPANSION_TREES = tuple((3, k) for k in range(2, 9)) + ((5, 2),)
VPX_PER_TREE = 5
VPX_DIGITS = (30, 60)

# (p, r, M) of the recip_power_sum calls made by the tree and fseq
# operations of tree-dual and deep-expansion (found with the tracer); the
# _DIRECT_LIMIT probe times B = 4096 and B = 4097 at each
PROBE_TUPLES = ((2, 1, 70), (2, 1, 71), (2, 2, 71), (3, 1, 37), (3, 2, 37),
                (5, 1, 37), (5, 2, 37))

VAL_REQUESTS = 300
VAL_STRATA = 12  # fresh keys per (p, k); the other 84 requests repeat a key
VAL_PRIMES = (2, 3, 5)
VAL_KS = tuple(range(2, 8))
VAL_N_MAX = 3_000
VAL_POOL = 40
CACHE_SLOT = "{cache}"

# Seeded checks take the workload seed; the two that take a prime use 11.
SEEDED_CHECK_PRIME = 11
VERIFY_COMMANDS = (
    ("structural",),
    ("lengyel",),
    ("integral-scan",),
    ("corollary-2adic", "--seed", None),
    ("ubound",),
    ("harm-count", "--p", str(SEEDED_CHECK_PRIME), "--seed", None),
    ("cpicong", "--p", str(SEEDED_CHECK_PRIME), "--seed", None),
    ("p59-exponent",),
    ("lower-bound-monitor",),
    ("lower-bound-monitor", "--p", "2", "--k", "2", "--max-n", "8192"),
    ("ubound", "--p", "2", "--k", "2", "--x", "4096"),
)

# Tree-document fields that carry the answer.  Format and version fields
# are left out so a format change alone does not read as a wrong answer;
# dual_checks is held to a floor instead of an exact value.
TREE_ANSWER_KEYS = (
    "p", "k", "root", "t", "U", "W", "engine", "max_depth", "status",
    "truncated_at", "node_count", "levels", "leaves", "child_stats",
)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pair_key(p: int, k: int) -> str:
    return f"{p},{k}"


def val_pool(p: int, k: int) -> list[int]:
    """Log-spaced n in [k, VAL_N_MAX] whose valuations golden.json holds."""
    ratio = VAL_N_MAX / k
    return sorted({round(k * ratio ** (i / (VAL_POOL - 1))) for i in range(VAL_POOL)})


def tree_digest(doc: dict) -> str:
    body = json.dumps({key: doc[key] for key in TREE_ANSWER_KEYS}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def digits_of(n: int, p: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out[::-1]


def value_of(digits, p: int) -> int:
    n = 0
    for d in digits:
        n = n * p + d
    return n


# ---------------------------------------------------------------------------
# inputs

def make_ops(workload: str, seed: int, golden: dict) -> list[dict]:
    """The workload's operations, in order, for this seed."""
    if workload == "tree-dual":
        return [
            {"argv": ["tree", "--p", "3", "--k", str(k)]} for k in TREE_DUAL_KS
        ]
    if workload == "deep-expansion":
        return _deep_expansion_ops(seed, golden)
    if workload == "val-stream":
        return _val_stream_ops(seed)
    if workload == "verify-suite":
        return [
            {"argv": ["verify"] + [str(seed) if a is None else a for a in cmd]}
            for cmd in VERIFY_COMMANDS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _deep_expansion_ops(seed: int, golden: dict) -> list[dict]:
    ops = [{"argv": ["fseq", "--terms", str(FSEQ_TERMS)]}]
    ops += [
        {"argv": ["tree", "--p", str(p), "--k", str(k), "--engine", "expansion"]}
        for p, k in EXPANSION_TREES
    ]
    # Every tree gets the same number of large n at the same spread of
    # lengths, so the seed moves the inputs but hardly their cost.  Each n
    # starts at a node of the deepest level of its tree, so the expansion
    # scan runs the whole path before the next digit's leaf pins it.
    rng = random.Random(seed)
    lo, hi = VPX_DIGITS
    lengths = [lo + (hi - lo) * i // (VPX_PER_TREE - 1) for i in range(VPX_PER_TREE)]
    calls = []
    for p, k in EXPANSION_TREES:
        deepest = [lvl for lvl in golden["expansion_trees"][pair_key(p, k)]["levels"] if lvl][-1]
        for length in lengths:
            start = rng.choice(deepest)
            digits = start + [rng.randrange(p) for _ in range(length - len(start))]
            calls.append({"vpx": [value_of(digits, p), k, p]})
    rng.shuffle(calls)
    return ops + calls


def _val_stream_ops(seed: int) -> list[dict]:
    # Each (p, k) gets one fresh n from each of VAL_STRATA runs of its
    # log-spaced pool, so every seed asks for the same mix of sizes; the
    # seed picks the n within each run, the order, and which earlier keys
    # come back.
    rng = random.Random(seed)
    fresh = []
    for p in VAL_PRIMES:
        for k in VAL_KS:
            pool = val_pool(p, k)
            for i in range(VAL_STRATA):
                stratum = pool[i * len(pool) // VAL_STRATA:(i + 1) * len(pool) // VAL_STRATA]
                fresh.append((p, rng.choice(stratum), k))
    rng.shuffle(fresh)
    repeats = set(rng.sample(range(1, VAL_REQUESTS), VAL_REQUESTS - len(fresh)))
    keys = []
    for i in range(VAL_REQUESTS):
        keys.append(rng.choice(keys) if i in repeats else fresh.pop())
    return [
        {"argv": ["val", "--p", str(p), "--n", str(n), "--k", str(k), "--cache", CACHE_SLOT]}
        for p, n, k in keys
    ]


def inputs_digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# answers

class Checker:
    """Judges each operation's output; built once per run, before any worker."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.seed = seed
        self.golden = golden
        self.seeded = {}
        if workload == "verify-suite":
            bits = [int(b) for b in golden["fseq"]]
            self.seeded = {
                "corollary-2adic": ref_corollary_2adic(bits, seed),
                "harm-count": ref_harm_count(SEEDED_CHECK_PRIME, seed),
                "cpicong": ref_cpicong(SEEDED_CHECK_PRIME, seed),
            }

    def check(self, op: dict, out: str) -> str | None:
        """None if the output is right, else what is wrong with it."""
        try:
            if "vpx" in op:
                return self._check_vpx(op["vpx"], json.loads(out))
            cmd = op["argv"][0]
            if cmd == "tree":
                return self._check_tree(op["argv"], json.loads(out))
            if cmd == "fseq":
                return self._check_fseq(json.loads(out))
            if cmd == "val":
                return self._check_val(op["argv"], json.loads(out))
            return self._check_verify(op["argv"], out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check_tree(self, argv: list[str], doc: dict) -> str | None:
        p, k = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--k") + 1])
        if "--engine" in argv:
            want = self.golden["expansion_trees"][pair_key(p, k)]
        else:
            want = self.golden["dual_trees"][pair_key(p, k)]
        if p == 3 and k in README_T3_NODES:
            if doc["node_count"] != README_T3_NODES[k] or doc["status"] != "complete":
                return f"T_3({k}) has {doc['node_count']} nodes ({doc['status']})"
        if tree_digest(doc) != want["digest"]:
            return f"T_{p}({k}) differs from the recorded tree"
        if doc["dual_checks"] < want["dual_checks"]:
            return (
                f"T_{p}({k}) made {doc['dual_checks']} dual checks, "
                f"fewer than the recorded {want['dual_checks']}"
            )
        return None

    def _check_fseq(self, bits: str) -> str | None:
        if not bits.startswith(README_FSEQ_PREFIX) or bits != self.golden["fseq"][: FSEQ_TERMS + 1]:
            return f"branch bits {bits[:20]}... differ from the recorded bits"
        return None

    def _check_vpx(self, nkp: list[int], verdict: list) -> str | None:
        n, k, p = nkp
        tree = self.golden["expansion_trees"][pair_key(p, k)]
        nodes = {tuple(d) for level in tree["levels"] for d in level}
        digits = digits_of(n, p)
        cut = next(i for i in range(len(tree["levels"][0][0]) + 1, len(digits) + 1)
                   if tuple(digits[:i]) not in nodes)
        leaf = ",".join(map(str, digits[:cut]))
        # the leaf fixes the valuation of the weighted sum; the digit
        # length of n only shifts the result by k per digit
        want = tree["U"] + tree["leaf_sum_valuation"][leaf] - k * (len(digits) - 1)
        if verdict != [want, None]:
            return f"vp_H_expansion({n}, {k}, {p}) gave {verdict}, want exact {want}"
        return None

    def _check_val(self, argv: list[str], got: dict) -> str | None:
        p, n, k = (int(argv[argv.index(flag) + 1]) for flag in ("--p", "--n", "--k"))
        want = self.golden["val"][pair_key(p, k)][str(n)]
        if got != {"p": p, "n": n, "k": k, "valuation": want, "method": "both"}:
            return f"val p={p} n={n} k={k} gave {got}, want valuation {want}"
        return None

    def _check_verify(self, argv: list[str], out: str) -> str | None:
        name = argv[1]
        if name in self.seeded:
            report = json.loads(out)
            want = self.seeded[name]
            if not report["passed"] or report["seed"] != self.seed or report["observed"] != want:
                return f"{name} observed {report['observed']}, want {want}"
            return None
        key = " ".join(argv[1:])
        if out.strip() != self.golden["verify"][key]:
            return f"verify {key} differs from the recorded report"
        if name == "integral-scan" and json.loads(out)["observed"]["integral_pairs"] != README_INTEGRAL_PAIRS:
            return "integral pairs differ from (1,1), (3,2)"
        return None


# ---------------------------------------------------------------------------
# reference oracles for the seeded checks at CLI defaults.  Each replays
# the check's seeded draws and recounts the observed fields with plain
# Fractions, independently of padicharm.

def _vp(q: Fraction, p: int) -> float:
    if q == 0:
        return math.inf
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ref_corollary_2adic(bits: list[int], seed: int, S: int = 14, samples: int = 500,
                        exact_cross_max: int = 4096) -> dict:
    rng = random.Random(seed)
    draws = [rng.randint(2, 2 ** S) for _ in range(samples)]
    prefixes = [value_of(bits[: s + 1], 2) for s in range(1, S + 1)]
    matched = crossed = 0
    for n in draws + prefixes:
        d = digits_of(n, 2)
        if all(d[i] == bits[i] for i in range(1, len(d))):
            matched += 1
        if n <= exact_cross_max:
            crossed += 1
    total = samples + S
    return {"matched": matched, "mismatched": total - matched, "exact_crossed": crossed}


def ref_harm_count(p: int, seed: int, cases: int = 500, x_max: int = 400) -> dict:
    rng = random.Random(seed)
    harmonic = [Fraction(0)]
    for i in range(1, x_max + p):
        harmonic.append(harmonic[-1] + Fraction(1, i))
    worst = 0
    for _ in range(cases):
        x = rng.randint(1, x_max)
        y = rng.randint(1, p - 1)
        r = Fraction(0) if rng.random() < 0.25 else Fraction(
            rng.randint(-p * p, p * p), rng.randint(1, 4 * p)
        )
        count = sum(1 for v in range(x, x + y + 1) if _vp(harmonic[v] - r, p) > 0)
        worst = max(worst, count)
    return {"worst_count": worst}


def ref_cpicong(p: int, seed: int, q_samples: int = 20, a_samples: int = 10) -> dict:
    rng = random.Random(seed)
    qs = []
    for _ in range(q_samples):
        den = rng.randint(1, 10 * p)
        while den % p == 0:
            den = rng.randint(1, 10 * p)
        qs.append(Fraction(rng.randint(-10 * p, 10 * p), den))
    if Fraction(0) not in qs:
        qs[0] = Fraction(0)
    starts = [rng.randint(1, 5 * p * p) for _ in range(a_samples)]
    worst = 0
    for q in qs:
        for a in starts:
            total, count = Fraction(0), 0
            for i in range(a, a + p):
                total += Fraction(1, i + (i - 1) // (p - 1))
                count += _vp(total - q, p) > 0
            worst = max(worst, count)
    return {"pairs": q_samples * a_samples, "worst_count": worst}
