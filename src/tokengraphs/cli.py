"""Batch verification driver.

Subcommands sweep tree token graphs (theorem), cross-check the constructive
path engine (paths), reproduce the two-clique counterexample family
(hfamily), and scan girth-5 graphs for the connectivity conjecture
(conjecture).  Every run streams one JSON record per (graph, k) unit;
a human summary follows unless --json is given.  A theorem, paths or
conjecture sweep is a list of graphs with their k ranges; each unit
(graph6, Graph, k) carries its graph, so no unit decodes.  Complementing maps
F_k(G) onto F_{n-k}(G), so a unit with n - k < k in its graph's k range is a
mirror: the record of n - k, kept per graph, is emitted again with only k
rewritten unless it is violated or errored, and then the mirror runs for real.
--jobs sends units in chunks, each pickled once with the graphs it shares.
Automorphisms of a tree act on F_k (`TokenGraph.symmetries`), and units fold
by them.  A paths unit folds the positions of its distance-2 pairs under the
tree's automorphisms, plus complementing when 2k = n, and builds one family per
orbit, for its first pair (`graphs.orbit_firsts`): isomorphic pairs have
isomorphic families, so every record field agrees on an orbit.  If a family
fails, a second pass of the loop, over every pair of the same F_k, names the
first failing pair and its index.  Each flow scan of a theorem or conjecture
unit has a fixed source and runs one flow per orbit of its sinks under the
tree automorphisms that fix that source; a non-tree base does not fold.  A unit
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
import string
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
from .tokens import TokenGraph, build_token_graph, min_token_degree

__all__ = ["main"]
Unit = tuple[str, Graph, int]  # (graph6 id, its graph, k)
_CHUNK = 16  # units per task sent to a --jobs worker


def _token_graph(record: dict, g: Graph, k: int) -> TokenGraph | None:
    """F_k(g), with its delta written into `record`; None when F_k is too large
    to build, and then `record` is marked skipped with the reason."""
    try:
        tg = build_token_graph(g, k)
    except ValueError as exc:
        record.update(status="skipped", reason=str(exc))
        return None
    record["delta"] = tg.min_degree()
    return tg


def _theorem_unit(arg: Unit) -> dict:
    """Check kappa = lambda = delta on one (tree, k) token graph."""
    g6, tree, k = arg
    record = {"graph_id": g6, "k": k, "delta": None, "kappa": None, "lambda": None}
    if (tg := _token_graph(record, tree, k)) is not None:
        record["kappa"] = vertex_connectivity(tg)
        record["lambda"] = edge_connectivity(tg)
        ok = record["kappa"] == record["lambda"] == record["delta"]
        record["status"] = "confirmed" if ok else "violated"
    return record


def _paths_unit(arg: Unit) -> dict:
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
    if (tg := _token_graph(record, tree, k)) is None:
        return record
    delta = record["delta"]
    d2 = list(tg.distance2_pairs())
    gens = tg.symmetries()
    # a failure in the folded pass reruns the loop over d2, so `pairs` indexes d2
    for candidates in (_first_pairs(d2, gens), d2) if gens else (d2,):
        sizes: list[int] = []
        slacks: dict[int, list[int]] = {1: [], 2: []}  # delta - m per case
        for pairs, (i, j) in enumerate(candidates, 1):
            x_cfg, y_cfg = tg.vertices[i], tg.vertices[j]
            try:
                result = build_family(tree, x_cfg, y_cfg, delta)
            except (FamilyConstructionError, ValueError) as exc:
                failure = {"x": list(x_cfg), "y": list(y_cfg), "error": str(exc)}
                break
            sizes.append(result.size)
            slacks[result.case].append(result.delta - result.context.m)
        else:
            record.update(
                pairs=len(d2),
                min_family_size=min(sizes, default=None),
                max_slack_case1=max(slacks[1], default=None),
                max_slack_case2=max(slacks[2], default=None),
                status="confirmed",
            )
            return record
    record.update(pairs=pairs, status="violated", instance=failure)
    return record


def _first_pairs(pairs: list[tuple[int, int]], gens: list[list[int]]) -> list[tuple[int, int]]:
    """The first pair of each orbit under the maps `gens` of F_k, in the order of `pairs`.

    Each map becomes the positions in `pairs` of its images: an automorphism of
    F_k keeps distances, so each image is one of `pairs`, in either order.
    """
    position = {}
    for i, (a, b) in enumerate(pairs):
        position[a, b] = position[b, a] = i
    tables = [[position[perm[a], perm[b]] for a, b in pairs] for perm in gens]
    return [pairs[i] for i in orbit_firsts(range(len(pairs)), tables)]


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
    if (tg := _token_graph(record, h, 2)) is not None:
        record["kappa"] = vertex_connectivity(tg)
        record["lambda"] = edge_connectivity(tg)
        ok = record["kappa"] == record["lambda"] == m - 1 and record["delta"] == 2 * (m - 2)
        record["status"] = "confirmed" if ok else "violated"
    return record


def _conjecture_unit(arg: Unit) -> dict:
    """Compare kappa and delta of F_k(G) for one girth-5 input graph."""
    g6, g, k = arg
    record = {"graph_id": g6, "k": k, "delta": None, "kappa": None, "lambda": None}
    if (tg := _token_graph(record, g, k)) is not None:
        record["kappa"] = vertex_connectivity(tg)
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


def _run_graphs(mode: str, graphs: list[tuple[str, Graph, range]], jobs: int):
    """Yield a record per unit (graph6, graph, k) of each (graph6, graph, ks) in
    order, with no mirror dispatched.

    Computed units go through _run_units: perfbench's tracer replaces
    _pool_worker and relies on _run_units passing its results through unchanged.
    """
    plans = [(g6, g, [(k, g.n - k if g.n - k < k and g.n - k in ks else None) for k in ks])
             for g6, g, ks in graphs]
    results = _run_units(mode, [(g6, g, k) for g6, g, plan in plans
                                for k, base in plan if base is None], jobs)
    for g6, g, plan in plans:
        computed: dict[int, dict] = {}  # this graph's computed records by k
        for k, base in plan:
            if base is None:
                record = computed[k] = next(results)
            elif computed[base]["status"] in ("confirmed", "skipped"):
                record = {**computed[base], "k": k}
            else:
                record = next(_run_units(mode, [(g6, g, k)], 1))
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


def _exit_code(counts: Counter) -> int:
    return 3 if counts["error"] else 1 if counts["violated"] else 0


def _tree_graphs(n_max: int) -> list[tuple[str, Graph, range]]:
    trees = [tree for n in range(2, n_max + 1) for tree in enumerate_trees(n)]
    return [(emit_graph6(tree), tree, range(1, tree.n)) for tree in trees]


def cmd_trees(args) -> int:
    """theorem and paths: one unit per tree with n <= n-max and per k."""
    records = _run_graphs(args.command, _tree_graphs(args.n_max), args.jobs)
    return _exit_code(_emit(records, args, f"{args.command} n<={args.n_max}"))


def cmd_hfamily(args) -> int:
    if args.m_min > args.m_max:
        print("error: --m-min above --m-max", file=sys.stderr)
        return 2
    units = list(range(args.m_min, args.m_max + 1))
    records = _run_units("hfamily", units, args.jobs)
    return _exit_code(_emit(records, args, f"hfamily m={args.m_min}..{args.m_max}"))


def cmd_conjecture(args) -> int:
    try:
        with open(args.input, encoding="ascii") as fh:
            # ASCII whitespace only: str.strip() would also drop \x1c-\x1f, \x85 and \xa0
            lines = [text for line in fh if (text := line.strip(string.whitespace))]
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # plan holds skip records, and None for each work unit, in input file order
    plan: list[dict | None] = []
    graphs: list[tuple[str, Graph, range]] = []
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
            ks = range(2, g.n - 1) if args.k is None else range(args.k, args.k + 1)
            plan += [None] * len(ks)
            graphs.append((g6, g, ks))

    results = _run_graphs("conjecture", graphs, args.jobs)
    records = (next(results) if record is None else record for record in plan)
    counts = _emit(records, args, f"conjecture {args.input}")
    return 3 if counts["error"] else 0  # a kappa < delta finding is the scan's output


def _int_range(lo: int, hi: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # as argparse words it for type=int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
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
