"""Command-line surface: valuations, trees, branch bits, checks, scans.

This is the only module that does I/O.  Machine paths emit line-delimited
JSON (or DOT for trees, in build_tree's order).  `verify` runs a row of
checks.CHECKS and parses the flags after the check's name with a parser
built from that row alone, so `verify NAME --help` lists exactly them
and a flag the row does not read is a usage error.  A seeded row lists
seed, and its --seed is required.  A flag left out is not passed, so
each default lives in the check's signature only.
`val` with method stirling or both runs the Stirling row, which jumps
aligned blocks of integers, so it takes any n; only the sweeps of
`verify` refuse n above valuation.ROW_CAP.
The command parser is built once per process, on the first `main` call
(a check's own parser once per `verify` call), and `main` looks up the
`cmd_*` function of each parsed command at call time, so a rebound
`cli.cmd_*` takes effect on the next call.
Exit codes: 0 success, 1 check failure / engine discrepancy / precision
failure, 2 usage error: a parse error, an ArgumentError (SizeCapError
included).  Any other exception is a fault and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass

from . import __version__
from .core import ArgumentError, EngineDisagreement, PrecisionError, vp
from .expansion import vp_H_expansion
from .tree import PTree, build_tree, f_sequence
from .valuation import exact_H, integral_pairs, vp_H_with_guard


@dataclass
class CacheRecord:
    p: int
    n: int
    k: int
    valuation: int
    engine: str
    guard: int


class CacheIntegrityError(RuntimeError):
    """A cache file with a torn or malformed line, or with conflicting
    valuations stored for the same (p, n, k)."""


class ValCache:
    """Append-only JSON-lines store keyed by (p, n, k), single writer.

    Every record is one JSON object and its newline, written at once, so a
    line without its newline is torn.  A torn or malformed line (non-UTF-8
    included) is refused, never truncated: appending after it would corrupt
    the next record.  A path that cannot be opened for reading and appending
    is an ArgumentError, raised before anything is computed; a missing file
    is created empty.
    """

    def __init__(self, path: str):
        self.path = path
        self._records: dict[tuple[int, int, int], CacheRecord] = {}
        try:
            fh = open(path, "a+b")
        except OSError as exc:
            raise ArgumentError(f"cache {path} cannot be opened for reading and "
                                f"appending: {exc.strerror}") from None
        with fh:
            fh.seek(0)
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                rec = _parse_record(line, path, lineno)
                key = (rec.p, rec.n, rec.k)
                old = self._records.get(key)
                if old is not None and old.valuation != rec.valuation:
                    raise CacheIntegrityError(
                        f"cache {path} holds conflicting valuations for "
                        f"(p={rec.p}, n={rec.n}, k={rec.k}): "
                        f"{old.valuation} vs {rec.valuation}"
                    )
                self._records.setdefault(key, rec)

    def get(self, p: int, n: int, k: int) -> CacheRecord | None:
        return self._records.get((p, n, k))

    def put(self, rec: CacheRecord) -> None:
        key = (rec.p, rec.n, rec.k)
        old = self._records.get(key)
        if old is not None:
            if old.valuation != rec.valuation:
                raise CacheIntegrityError(
                    f"refusing to insert conflicting valuation for {key}: "
                    f"{old.valuation} vs {rec.valuation}"
                )
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n")
        self._records[key] = rec


def _parse_record(line: bytes, path: str, lineno: int) -> CacheRecord:
    def refuse(why: str) -> CacheIntegrityError:
        return CacheIntegrityError(f"cache {path} line {lineno}: {why}")

    if not line.endswith(b"\n"):
        raise refuse("torn record (no terminating newline)")
    try:
        rec = CacheRecord(**json.loads(line.decode("utf-8")))
    except (ValueError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
        raise refuse(f"malformed record ({exc})") from None
    ints = (rec.p, rec.n, rec.k, rec.valuation, rec.guard)
    if not all(type(x) is int for x in ints) or not isinstance(rec.engine, str):
        raise refuse("malformed record (wrong field types)")
    return rec


def _digits(tree: PTree) -> dict[int, list[int]]:
    """The digits of each node and leaf of tree, keyed by its value in
    tree order; each list is its parent's plus one digit."""
    p = tree.p
    digits = {tree.levels[0][0]: list(tree.constants.root_digits)}
    for level in [*tree.levels[1:], tree.leaves]:
        for value in level:
            digits[value] = [*digits[value // p], value % p]
    return digits


def tree_document(tree: PTree) -> dict:
    """JSON-ready view of a built tree in its own order, byte-stable;
    "built_at" stays null until the next ptree format bump."""
    stats = tree.stats
    digits = _digits(tree)
    return {
        "format": "ptree-v1",
        "version": __version__,
        "p": tree.p,
        "k": tree.k,
        "root": list(tree.constants.root_digits),
        "t": tree.constants.t,
        "U": tree.constants.U,
        "W": tree.constants.W,
        "engine": tree.engine,
        "dual_checks": tree.dual_checks,
        "max_depth": tree.max_depth,
        "status": tree.status,
        "truncated_at": tree.truncated_at,
        "node_count": tree.node_count,
        "levels": [[digits[value] for value in level] for level in tree.levels],
        "leaves": [digits[value] for value in tree.leaves],
        "child_stats": {
            "min_children": stats.min_children,
            "max_children": stats.max_children,
            "determined": stats.determined,
            "girth": stats.min_children,
        },
        "built_at": None,
    }


def tree_dot(tree: PTree) -> str:
    """DOT text: one box per digit prefix, leaves dashed, in tree order."""
    p = tree.p
    sep = "" if p <= 10 else "."
    label = {value: sep.join(map(str, d)) for value, d in _digits(tree).items()}
    nodes = [value for level in tree.levels for value in level]
    lines = ["digraph ptree {", "  node [shape=box];"]
    lines += [f'  "{label[value]}";' for value in nodes]
    lines += [f'  "{label[value]}" [style=dashed];' for value in tree.leaves]
    for value in nodes[1:] + tree.leaves:
        lines.append(f'  "{label[value // p]}" -> "{label[value]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_val(args) -> int:
    p, n, k, method = args.p, args.n, args.k, args.method
    cache = ValCache(args.cache) if args.cache else None
    if cache is not None:
        hit = cache.get(p, n, k)
        if hit is not None:
            print(json.dumps(
                {"p": p, "n": n, "k": k, "valuation": hit.valuation, "method": hit.engine},
                sort_keys=True,
            ))
            return 0
    guard = 0
    if method == "exact":
        val = vp(exact_H(n, k), p)
    elif method == "stirling":
        val, guard = vp_H_with_guard(n, k, p)
    elif method == "expansion":
        verdict = vp_H_expansion(n, k, p)
        if not verdict.is_exact:
            raise PrecisionError(
                f"expansion engine only bounds vp >= {verdict.value} for "
                f"n={n}; use method stirling or both"
            )
        val = verdict.value
    else:  # both
        val, guard = vp_H_with_guard(n, k, p)
        verdict = None
        if k >= 2:
            try:
                verdict = vp_H_expansion(n, k, p)
            except ArgumentError:
                verdict = None  # digits of n do not extend those of k-1
        if verdict is not None:
            if verdict.is_exact and verdict.value != val:
                raise EngineDisagreement(
                    f"vp(H({n},{k})) mod {p}: stirling={val}, expansion={verdict.value}"
                )
            if not verdict.is_exact and val < verdict.value:
                raise EngineDisagreement(
                    f"vp(H({n},{k})) mod {p}: stirling={val} below expansion "
                    f"lower bound {verdict.value}"
                )
    if cache is not None:
        cache.put(CacheRecord(p=p, n=n, k=k, valuation=val, engine=method, guard=guard))
    print(json.dumps(
        {"p": p, "n": n, "k": k, "valuation": val, "method": method}, sort_keys=True
    ))
    return 0


def cmd_tree(args) -> int:
    tree = build_tree(args.p, args.k, max_depth=args.max_depth, engine=args.engine)
    if args.format == "dot":
        sys.stdout.write(tree_dot(tree))
    else:
        print(json.dumps(tree_document(tree), sort_keys=True))
    return 0


def cmd_fseq(args) -> int:
    print(json.dumps("".join(map(str, f_sequence(args.terms)))))
    return 0


def cmd_scan(args) -> int:
    for n, k in integral_pairs(args.max_n):
        print(json.dumps({"n": n, "k": k}))
    return 0


def cmd_verify(args) -> int:
    # only verify reads the check table, so tree, val and fseq never load it
    from .checks import CHECKS

    check = CHECKS.get(args.check)
    if check is None:
        print(
            f"unknown check {args.check!r}; valid names: {', '.join(CHECKS)}",
            file=sys.stderr,
        )
        return 2
    # the row's flags alone, none with a default: a flag left out stays out
    # of the call, so the check's signature supplies it
    parser = argparse.ArgumentParser(
        prog=f"padicharm verify {args.check}", argument_default=argparse.SUPPRESS
    )
    for flag in check.flags.values():
        parser.add_argument("--" + flag.replace("_", "-"), dest=flag, type=int,
                            required=flag == "seed")
    given = vars(parser.parse_args(args.flags))
    report = check.run(**{kw: given[flag] for kw, flag in check.flags.items() if flag in given})
    print(report.to_json())
    return 0 if report.passed else 1


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicharm",
        description="p-adic valuations of multiple harmonic sums, digit trees, "
        "and mechanical claim verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("val", help="valuation of one H(n, k)")
    p_val.add_argument("--p", type=int, required=True)
    p_val.add_argument("--n", type=int, required=True)
    p_val.add_argument("--k", type=int, required=True)
    p_val.add_argument(
        "--method",
        choices=["exact", "stirling", "expansion", "both"],
        default="both",
    )
    p_val.add_argument("--cache", help="JSONL cache path")

    p_tree = sub.add_parser("tree", help="build and serialize a digit tree")
    p_tree.add_argument("--p", type=int, required=True)
    p_tree.add_argument("--k", type=int, required=True)
    p_tree.add_argument("--max-depth", type=int, default=32)
    p_tree.add_argument(
        "--engine", choices=["stirling", "expansion", "both"], default="both"
    )
    p_tree.add_argument("--format", choices=["json", "dot"], default="json")

    p_fseq = sub.add_parser("fseq", help="branch bits of the 2-adic tree")
    p_fseq.add_argument("--terms", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run one named check")
    p_verify.add_argument("check")
    p_verify.add_argument("flags", nargs=argparse.REMAINDER,
                          help="the check's flags, listed by verify CHECK --help")

    p_scan = sub.add_parser("scan", help="integral values of H(n, k)")
    p_scan.add_argument("--max-n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return globals()["cmd_" + args.command](args)
    except SystemExit as exc:  # argparse's, verify's own parser included: 2, or 0 on --help
        return int(exc.code) if exc.code else 0
    except (EngineDisagreement, PrecisionError, CacheIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArgumentError as exc:  # SizeCapError included; other ValueErrors are faults
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
