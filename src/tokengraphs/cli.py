"""Batch verification driver.

Subcommands sweep tree token graphs (theorem), cross-check the constructive
path engine (paths), reproduce the two-clique counterexample family
(hfamily), and scan girth-5 graphs for the connectivity conjecture
(conjecture).  Every run streams one JSON record per (graph, k) unit;
a human summary follows unless --json is given.  A theorem, paths or
conjecture unit (graph6, Graph, k) carries its graph, so no unit decodes.
Complementing configurations maps F_k(G) onto F_{n-k}(G), so such a unit with
k > n - k whose unit for n - k came earlier is a mirror: that record is
emitted again with only k rewritten, unless it is violated or errored, and
then the mirror runs for real so that its own witness or traceback appears.
--jobs sends units in chunks, each pickled once with the graphs it shares.
Automorphisms of a tree act on F_k (`TokenGraph.symmetries`), and units fold
by them.  A paths unit folds its distance-2 pairs by orbit under the tree's
automorphisms, plus complementing when 2k = n, and builds one family per
orbit, for its first pair (`graphs.orbit_firsts`): isomorphic pairs have
isomorphic families, so every record field agrees on an orbit.  If a family
fails, the paths unit reruns over every pair so that its record names the
first failing pair and its index.  Each flow scan of a theorem or conjecture unit has a fixed
source and runs one flow per orbit of its sinks under the tree
automorphisms that fix that source; a non-tree base does not fold.  A unit
that raises an unexpected exception yields a record with status "error" and
the exception, and its traceback goes to stderr; the sweep goes on.  Exit code
1 flags a violated record in the theorem, paths or hfamily modes, 2 a usage
or input error, 3 a unit that errored, in any mode, or a --jobs worker that
died, and 141 (128 + SIGPIPE) a reader that closed stdout before the sweep
ended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .connectivity import edge_connectivity, vertex_connectivity
from .families import FamilyConstructionError, build_family
from .graphs import (
    Graph,
    Graph6Error,
    bridged_cliques,
    emit_graph6,
    enumerate_trees,
    girth,
    orbit_firsts,
    parse_graph6,
)
# min_token_degree stays importable here: perfbench's tracer wraps cli.min_token_degree
from .tokens import build_token_graph, min_token_degree

__all__ = ["main"]
Unit = tuple[str, Graph, int]  # (graph6 id, its graph, k)
_CHUNK = 16  # units per task sent to a --jobs worker


def _measure(record: dict, g: Graph, k: int, with_lambda: bool = True) -> bool:
    """Fill in delta, kappa and lambda of F_k(g); False marks F_k too large to build."""
    try:
        tg = build_token_graph(g, k)
    except ValueError as exc:
        record.update(status="skipped", reason=str(exc))
        return False
    record["delta"] = tg.min_degree()
    record["kappa"] = vertex_connectivity(tg)
    if with_lambda:
        record["lambda"] = edge_connectivity(tg)
    return True


def _theorem_unit(arg: Unit) -> dict:
    """Check kappa = lambda = delta on one (tree, k) token graph."""
    g6, tree, k = arg
    record = {"graph_id": g6, "k": k, "delta": None, "kappa": None, "lambda": None}
    if _measure(record, tree, k):
        ok = record["kappa"] == record["lambda"] == record["delta"]
        record["status"] = "confirmed" if ok else "violated"
    return record


def _paths_unit(arg: Unit, fold: bool = True) -> dict:
    """Run the path engine on one distance-2 pair per symmetry orbit of one (tree, k)."""
    g6, tree, k = arg
    record = {
        "graph_id": g6,
        "k": k,
        "delta": None,
        "kappa": None,
        "lambda": None,
        "pairs": 0,
        "min_family_size": None,
        "max_slack_case1": None,
        "max_slack_case2": None,
    }
    try:
        tg = build_token_graph(tree, k)
    except ValueError as exc:
        record.update(status="skipped", reason=str(exc))
        return record
    delta = tg.min_degree()
    record["delta"] = delta
    gens = tg.symmetries() if fold else []
    d2 = list(tg.distance2_pairs())
    min_size: int | None = None
    max_slack: dict[int, int | None] = {1: None, 2: None}
    # without gens this walks every pair, so `pairs` is the index of (i, j) in d2
    for pairs, (i, j) in enumerate(_first_pairs(tg.n, d2, gens) if gens else d2, 1):
        x_cfg, y_cfg = tg.vertices[i], tg.vertices[j]
        try:
            result = build_family(tree, x_cfg, y_cfg, delta)
        except (FamilyConstructionError, ValueError) as exc:
            if gens:
                return _paths_unit(arg, fold=False)
            record.update(
                pairs=pairs,
                status="violated",
                instance={"x": list(x_cfg), "y": list(y_cfg), "error": str(exc)},
            )
            return record
        size = result.size
        min_size = size if min_size is None else min(min_size, size)
        slack, case = result.delta - result.context.m, result.case
        prev = max_slack[case]
        max_slack[case] = slack if prev is None else max(prev, slack)
    record.update(
        pairs=len(d2),
        min_family_size=min_size,
        max_slack_case1=max_slack[1],
        max_slack_case2=max_slack[2],
        status="confirmed",
    )
    return record


def _first_pairs(size: int, pairs: list[tuple[int, int]],
                 gens: list[list[int]]) -> list[tuple[int, int]]:
    """The first pair of each orbit under the maps `gens` of F_k, in the order of `pairs`.

    An unordered pair of vertex indices lo < hi is keyed lo * size + hi, so
    each map becomes a permutation of the keys of the distance-2 pairs.
    """
    los, his = [i for i, _ in pairs], [j for _, j in pairs]
    keys = [a * size + b for a, b in pairs]
    maps = []
    for perm in gens:
        images = zip(map(perm.__getitem__, los), map(perm.__getitem__, his))
        maps.append(dict(zip(keys, [a * size + b if a < b else b * size + a
                                    for a, b in images])))
    return [divmod(key, size) for key in orbit_firsts(keys, maps)]


def _hfamily_unit(m: int) -> dict:
    """Check the two-clique bridge graph H(m) against its known values."""
    h = bridged_cliques(m)
    g6 = emit_graph6(h)
    record = {
        "graph_id": g6,
        "m": m,
        "k": 2,
        "delta": None,
        "kappa": None,
        "lambda": None,
        "kappa_expected": m - 1,
        "delta_expected": 2 * (m - 2),
    }
    if _measure(record, h, 2):
        ok = record["kappa"] == record["lambda"] == m - 1 and record["delta"] == 2 * (m - 2)
        record["status"] = "confirmed" if ok else "violated"
    return record


def _conjecture_unit(arg: Unit) -> dict:
    """Compare kappa and delta of F_k(G) for one girth-5 input graph."""
    g6, g, k = arg
    record = {"graph_id": g6, "k": k, "delta": None, "kappa": None, "lambda": None}
    if _measure(record, g, k, with_lambda=False):
        record["status"] = "confirmed" if record["kappa"] == record["delta"] else "violated"
    return record


_UNIT_RUNNERS = {
    "theorem": _theorem_unit,
    "paths": _paths_unit,
    "hfamily": _hfamily_unit,
    "conjecture": _conjecture_unit,
}


def _pool_worker(task: tuple[str, object]) -> dict:
    mode, arg = task
    try:
        return _UNIT_RUNNERS[mode](arg)
    except Exception as exc:  # one failing unit must not end the sweep
        import traceback
        traceback.print_exc()
        unit = {"m": arg} if mode == "hfamily" else {"graph_id": arg[0], "k": arg[-1]}
        return {**unit, "status": "error", "error": f"{type(exc).__name__}: {exc}"}


class _WorkerDied(Exception):
    """A --jobs worker process died; main exits 3 after the records written."""


def _run_units(mode: str, units: list, jobs: int):
    """Yield one record per unit, in unit order regardless of jobs."""
    tasks = [(mode, u) for u in units]
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield _pool_worker(task)
        return
    # imported here, so that a serial sweep does not load the pool
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    pool = ProcessPoolExecutor(jobs)
    try:  # 256 units per map, so that the pending futures stay few in a long sweep
        for i in range(0, len(tasks), 256):
            yield from pool.map(_pool_worker, tasks[i:i + 256], chunksize=_CHUNK)
    except BrokenProcessPool as exc:
        raise _WorkerDied(exc) from None
    finally:
        pool.shutdown(cancel_futures=True)


def _run_mirrored(mode: str, units: list[Unit], jobs: int):
    """Yield one record per (graph6, graph, k) unit in unit order, dispatching no mirror.

    A mirror's base is (g6, n - k), n read from the unit's graph.  It wraps
    _run_units because perfbench's tracer replaces _pool_worker and relies on
    _run_units passing worker results through unchanged.
    """
    listed, bases = set(), []
    for g6, g, k in units:
        base = (g6, g.n - k)
        bases.append(base if base[1] < k and base in listed else None)
        listed.add((g6, k))
    wanted = set(filter(None, bases))
    results = _run_units(mode, [u for u, b in zip(units, bases) if b is None], jobs)
    held: dict[tuple[str, int], dict] = {}
    for unit, base in zip(units, bases):
        if base is None:
            record = next(results)
            if (key := (unit[0], unit[2])) in wanted:
                held[key] = record
        elif (record := held.pop(base))["status"] in ("confirmed", "skipped"):
            record = {**record, "k": unit[2]}
        else:
            record = next(_run_units(mode, [unit], 1))
        yield record
    next(results, None)  # let the dispatcher finish and close its pool


def _emit(records, args, summary_head: str) -> Counter:
    """Stream records as JSON lines; summarise status counts, violations and errors."""
    counts: Counter = Counter()
    flagged: list[dict] = []
    for record in records:
        counts[record["status"]] += 1
        if record["status"] in ("violated", "error"):
            flagged.append(record)
        print(json.dumps(record))
    if not args.json:
        statuses = ("confirmed", "violated", "skipped", "error")
        parts = [f"{counts[s]} {s}" for s in statuses if counts[s]]
        total = sum(counts.values())
        print(f"# {summary_head}: {total} records: {', '.join(parts) or 'none'}")
        for record in flagged:
            if record["status"] == "violated":
                print(f"#   violated: graph_id={record['graph_id']} k={record['k']}")
            else:
                unit = " ".join(f"{key}={value}" for key, value in record.items()
                                if key not in ("status", "error"))
                print(f"#   error: {unit}: {record['error']}")
    return counts


def _exit_code(counts: Counter, violations_fail: bool = True) -> int:
    if counts["error"]:
        return 3
    return 1 if violations_fail and counts["violated"] else 0


def _tree_units(n_max: int) -> list[Unit]:
    units = []
    for n in range(2, n_max + 1):
        for tree in enumerate_trees(n):
            g6 = emit_graph6(tree)
            units.extend((g6, tree, k) for k in range(1, n))
    return units


def cmd_trees(args) -> int:
    """theorem and paths: one unit per tree with n <= n-max and per k."""
    records = _run_mirrored(args.command, _tree_units(args.n_max), args.jobs)
    return _exit_code(_emit(records, args, f"{args.command} n<={args.n_max}"))


def cmd_hfamily(args) -> int:
    units = list(range(args.m_min, args.m_max + 1))
    records = _run_units("hfamily", units, args.jobs)
    return _exit_code(_emit(records, args, f"hfamily m={args.m_min}..{args.m_max}"))


def cmd_conjecture(args) -> int:
    try:
        with open(args.input, encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # plan holds skip records, and None for each work unit, in input file order
    plan: list[dict | None] = []
    units: list[Unit] = []
    def skip(g6: str, k: int | None, reason: str) -> None:
        plan.append({"graph_id": g6, "k": k, "delta": None, "kappa": None,
                     "lambda": None, "status": "skipped", "reason": reason})

    for line in lines:
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            print(f"error: {line!r}: {exc}", file=sys.stderr)
            return 2
        g6 = emit_graph6(g)
        if not g.connected:
            skip(g6, None, "not connected")
        elif girth(g) < 5:
            skip(g6, None, "girth<5")
        elif args.k is not None and not 2 <= args.k <= g.n - 2:
            skip(g6, args.k, "k out of range")
        elif g.n < 4:
            skip(g6, None, "no admissible k")
        else:
            ks = range(2, g.n - 1) if args.k is None else [args.k]
            plan += [None] * len(ks)
            units += [(g6, g, k) for k in ks]

    results = _run_mirrored("conjecture", units, args.jobs)
    records = (next(results) if record is None else record for record in plan)
    # a kappa < delta finding is the scan's output, not a failure
    return _exit_code(_emit(records, args, f"conjecture {args.input}"), violations_fail=False)


def _int_range(lo: int, hi: int):
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}]")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON records only, no summary")
    common.add_argument("--jobs", type=_int_range(1, 64), default=1, metavar="J",
                        help="worker processes (default 1)")

    parser = argparse.ArgumentParser(
        prog="tokengraphs",
        description="verify tree token graph connectivity results at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theorem", parents=[common],
                       help="check kappa = lambda = delta over all trees up to n-max")
    p.add_argument("--n-max", type=_int_range(2, 13), default=7, metavar="N")
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("paths", parents=[common],
                       help="build disjoint path families for every distance-2 pair")
    p.add_argument("--n-max", type=_int_range(2, 10), default=6, metavar="N")
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("hfamily", parents=[common],
                       help="reproduce the two-clique counterexample values")
    p.add_argument("--m-min", type=_int_range(3, 6), default=4, metavar="A")
    p.add_argument("--m-max", type=_int_range(3, 6), default=6, metavar="B")
    p.set_defaults(func=cmd_hfamily)

    p = sub.add_parser("conjecture", parents=[common],
                       help="scan girth-5 graphs for kappa = delta in every F_k")
    p.add_argument("--input", required=True, metavar="FILE.g6",
                   help="graph6 file, one graph per line")
    p.add_argument("--k", type=int, default=None, metavar="K")
    p.set_defaults(func=cmd_conjecture)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if getattr(args, "m_min", None) is not None and args.m_min > args.m_max:
        print("error: --m-min above --m-max", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the shutdown flush
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit stays quiet
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except _WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
