"""Outside-in tracer for padicharm.

It wraps public functions of ``core``, ``valuation``, ``expansion``,
``tree``, ``checks`` and ``cli`` from outside the package and changes no
source.  The modules import each other's functions by name (``tree``
calls its own ``vp_H``, ``checks`` its own ``cp``), so every wrapper
replaces the function in each ``padicharm.*`` namespace that holds it,
not only in the module that defines it.

Core primitives are called millions of times and only get counters.
Everything else gets spans (name, start, end, parent) kept in memory and
written out when the worker ends; self time is a span's duration minus
that of its child spans.  Hooks on arguments and results add counts that
are measured where the work happens: rows and modulus sizes for the
Stirling route, exact verdicts for the expansion engine, tree shapes,
cache hits.  The module ``lru_cache``s are snapshotted before and after.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

CHECK_FUNCTIONS = {
    "check_structural_identities": "structural",
    "check_lengyel_identity": "lengyel",
    "check_integral_scan": "integral-scan",
    "check_corollary_2adic": "corollary-2adic",
    "check_ubound": "ubound",
    "check_harm_count_suite": "harm-count",
    "check_cpicong": "cpicong",
    "check_p59_exponent": "p59-exponent",
    "monitor_lower_bound": "lower-bound-monitor",
}


def _padicharm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "padicharm" or name.startswith("padicharm."))]


def _lru_caches() -> dict:
    out = {}
    for mod in _padicharm_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "") == mod.__name__:
                out[f"{mod.__name__.split('.')[-1]}.{attr}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.rpsum_keys: set[tuple[int, int, int]] = set()
        self._caches = _lru_caches()
        self._cache_before = {name: f.cache_info() for name, f in self._caches.items()}

    def counter(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; hooks see only the outermost call of a name."""
        spans, stack, active, counts = self.spans, self._stack, self.active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not active[name]
            token = None
            if outer:
                counts[name + ".calls"] += 1
                if before is not None:
                    token = before(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[sid] = (name, start, end, parent, outer)
            if outer and after is not None:
                after(result, token, *args, **kwargs)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per name: outermost-call seconds, self seconds, and the named
        parent/child overlaps the metrics need."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        child_sum = [0.0] * len(self.spans)
        for name, start, end, parent, outer in self.spans:
            if parent >= 0:
                child_sum[parent] += end - start
        serialize = 0.0
        for sid, (name, start, end, parent, outer) in enumerate(self.spans):
            dur = end - start
            if outer:
                total[name] += dur
            self_s[name] += dur - child_sum[sid]
            if name == "cli.tree":
                serialize += dur
            elif name == "tree.build_tree" and parent >= 0 and self.spans[parent][0] == "cli.tree":
                serialize -= dur
        return {"s": dict(total), "self_s": dict(self_s), "serialize_s": serialize}

    def cache_deltas(self) -> dict:
        out = {}
        for name, f in self._caches.items():
            a, b = self._cache_before[name], f.cache_info()
            out[name] = {"hits": b.hits - a.hits, "misses": b.misses - a.misses,
                         "currsize": b.currsize}
        return out

    def write_spans(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


def _replace(original, wrapper) -> None:
    for mod in _padicharm_modules():
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, wrapper)


def instrument() -> Tracer:
    """Install counters and spans over the imported padicharm modules."""
    from padicharm import checks, cli, core, expansion, tree, valuation

    t = Tracer()
    c = t.counts

    for name in ("is_prime", "cp", "vp_int", "to_digits"):
        _replace(getattr(core, name), t.counter(f"core.{name}", getattr(core, name)))

    # -- valuation
    def stirling_rows(n, k, p, M, *rest, **kw):
        c["valuation.row_steps"] += n * k
        bits = math.ceil(M * math.log2(p))
        t.maxima["valuation.modulus_bits.max"] = max(t.maxima["valuation.modulus_bits.max"], bits)

    def vp_H_enter(*args, **kwargs):
        if t.active["valuation.vp_H_sweep"]:
            c["valuation.sweep_fallbacks"] += 1
        return c["valuation.stirling_mod.calls"]

    def vp_H_exit(result, rows_before, *args, **kwargs):
        if c["valuation.stirling_mod.calls"] - rows_before == 1:
            c["valuation.vp_H.first_try"] += 1

    def sweep_rows(n_max, k, *rest, **kw):
        c["valuation.row_steps"] += (n_max + 1) * (k + 1)

    _replace(valuation.stirling_mod,
             t.span("valuation.stirling_mod", valuation.stirling_mod, before=stirling_rows))
    # vp_H is a thin shell over vp_H_with_guard, which cli.val calls directly;
    # both count as one vp_H call (a nested call of the same name is not
    # counted twice).
    for fn in (valuation.vp_H, valuation.vp_H_with_guard):
        _replace(fn, t.span("valuation.vp_H", fn, before=vp_H_enter, after=vp_H_exit))
    _replace(valuation.vp_H_sweep,
             t.span("valuation.vp_H_sweep", valuation.vp_H_sweep, before=sweep_rows))
    _replace(valuation.exact_H_table, t.span("valuation.exact_H_table", valuation.exact_H_table))

    # -- expansion
    def verdict(result, token, *args, **kwargs):
        c["expansion.vp_H_expansion.ok"] += 1
        if result.is_exact:
            c["expansion.vp_H_expansion.exact"] += 1

    def rpsum_key(B, r, p, M):
        t.rpsum_keys.add((p, r, M))

    for name in ("h_prime_mod", "recip_esym", "h_p_mod"):
        fn = getattr(expansion, name)
        _replace(fn, t.span(f"expansion.{name}", fn))
    _replace(expansion.recip_power_sum,
             t.span("expansion.recip_power_sum", expansion.recip_power_sum, before=rpsum_key))
    _replace(expansion.vp_H_expansion,
             t.span("expansion.vp_H_expansion", expansion.vp_H_expansion, after=verdict))
    for name, label in (("_recip_esym_newton", "recip_esym.newton"),
                        ("_recip_power_sum_closed", "recip_power_sum.closed"),
                        ("_recip_power_sum_direct", "recip_power_sum.direct")):
        fn = getattr(expansion, name)
        _replace(fn, t.counter(f"expansion.{label}", fn))

    # -- tree
    def tree_shape(result, token, *args, **kwargs):
        c["tree.levels"] += len(result.levels)
        c["tree.nodes"] += result.node_count
        c["tree.leaves"] += len(result.leaves)
        c["tree.dual_checks"] += result.dual_checks
        t.maxima["tree.frontier_max"] = max(
            t.maxima["tree.frontier_max"], max(len(level) for level in result.levels))

    _replace(tree.build_tree, t.span("tree.build_tree", tree.build_tree, after=tree_shape))
    _replace(tree.f_sequence, t.span("tree.f_sequence", tree.f_sequence))

    # -- checks
    for fname, label in CHECK_FUNCTIONS.items():
        fn = getattr(checks, fname)
        _replace(fn, t.span(f"checks.{label}", fn))

    # -- cli
    def val_enter(*args, **kwargs):
        return c["valuation.vp_H.calls"], c["expansion.vp_H_expansion.ok"]

    def val_exit(result, token, *args, **kwargs):
        if c["valuation.vp_H.calls"] > token[0] and c["expansion.vp_H_expansion.ok"] > token[1]:
            c["cli.val.dual_checks"] += 1

    def cache_get(result, token, *args, **kwargs):
        if result is not None:
            c["cli.val.cache_hits"] += 1

    _replace(cli.main, t.span("cli.main", cli.main))
    _replace(cli.cmd_val, t.span("cli.val", cli.cmd_val, before=val_enter, after=val_exit))
    for name in ("cmd_tree", "cmd_fseq", "cmd_verify"):
        fn = getattr(cli, name)
        _replace(fn, t.span("cli." + name[4:], fn))
    for name in ("tree_document", "tree_dot"):
        fn = getattr(cli, name)
        _replace(fn, t.span("cli." + name, fn))
    cache = cli.ValCache
    cache.__init__ = t.span("cli.cache_load", cache.__init__)
    cache.put = t.span("cli.cache_put", cache.put)
    cache.get = t.span("cli.cache_get", cache.get, after=cache_get)
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Every per-layer figure the trace yields, keyed by metric name."""
    agg = t.aggregate()
    s, self_s = agg["s"], agg["self_s"]
    c = dict(t.counts)
    caches = t.cache_deltas()

    def calls(name):
        return c.get(name + ".calls", 0)

    m: dict[str, float] = {}
    for name in ("is_prime", "cp", "vp_int", "to_digits"):
        m[f"core.{name}.calls"] = calls(f"core.{name}")

    for name in ("vp_H", "stirling_mod", "vp_H_sweep"):
        m[f"valuation.{name}.calls"] = calls(f"valuation.{name}")
        m[f"valuation.{name}.s"] = s.get(f"valuation.{name}", 0.0)
    m["valuation.row_steps"] = c.get("valuation.row_steps", 0)
    m["valuation.modulus_bits.max"] = t.maxima.get("valuation.modulus_bits.max", 0)
    m["valuation.first_try_ratio"] = _ratio(c.get("valuation.vp_H.first_try", 0),
                                            calls("valuation.vp_H"))
    m["valuation.sweep_fallbacks"] = c.get("valuation.sweep_fallbacks", 0)
    m["valuation.exact_H_table.s"] = s.get("valuation.exact_H_table", 0.0)

    for name in ("h_prime_mod", "recip_esym", "recip_power_sum", "h_p_mod", "vp_H_expansion"):
        m[f"expansion.{name}.calls"] = calls(f"expansion.{name}")
        m[f"expansion.{name}.s"] = s.get(f"expansion.{name}", 0.0)
    m["expansion.h_prime_mod.self_s"] = self_s.get("expansion.h_prime_mod", 0.0)
    m["expansion.recip_esym.newton_share"] = _ratio(
        calls("expansion.recip_esym.newton"), calls("expansion.recip_esym"))
    closed = calls("expansion.recip_power_sum.closed")
    m["expansion.recip_power_sum.closed_share"] = _ratio(
        closed, closed + calls("expansion.recip_power_sum.direct"))
    for metric, cache in (("recip_power_sum", "expansion.recip_power_sum"),
                          ("index_power_sums", "expansion._index_power_sums")):
        d = caches[cache]
        m[f"expansion.{metric}.hit_ratio"] = _ratio(d["hits"], d["hits"] + d["misses"])
    m["expansion.vp_H_expansion.exact_ratio"] = _ratio(
        c.get("expansion.vp_H_expansion.exact", 0), calls("expansion.vp_H_expansion"))

    for name in ("build_tree", "f_sequence"):
        m[f"tree.{name}.s"] = s.get(f"tree.{name}", 0.0)
        m[f"tree.{name}.self_s"] = self_s.get(f"tree.{name}", 0.0)
    for name in ("levels", "nodes", "leaves", "dual_checks"):
        m[f"tree.{name}"] = c.get(f"tree.{name}", 0)
    m["tree.frontier_max"] = t.maxima.get("tree.frontier_max", 0)

    for label in CHECK_FUNCTIONS.values():
        m[f"checks.{label}.s"] = s.get(f"checks.{label}", 0.0)

    m["cli.val.requests"] = calls("cli.val")
    m["cli.val.cache_hits"] = c.get("cli.val.cache_hits", 0)
    m["cli.val.hit_ratio"] = _ratio(m["cli.val.cache_hits"], m["cli.val.requests"])
    m["cli.val.dual_checks"] = c.get("cli.val.dual_checks", 0)
    m["cli.cache_load_s"] = s.get("cli.cache_load", 0.0)
    m["cli.cache_put_s"] = s.get("cli.cache_put", 0.0)
    m["cli.serialize_s"] = agg["serialize_s"]
    return m
