"""Span tracing for the traced run, installed from outside the package.

`install` replaces the module-level names through which one tokengraphs
layer calls another (for example `cli.vertex_connectivity` or
`families.TokenPath`) with timing wrappers, so nothing under `src/` changes.
A span records its name, start, end, parent span and unit id.  Calls made
hundreds of thousands of times per sweep (path replays, trace checks) are
leaves and are aggregated per parent span into a count and a total, which
keeps the traced run's memory bounded.

Each span name is `<layer>.<call>`; the layer is the package module.  A
layer's self time is its spans' durations minus the part their child spans
cover.  Units run in `--jobs` workers record into the worker's copy of the
tracer and ship their spans back with the record.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from time import monotonic_ns as now


class Tracer:
    """Spans, per-parent aggregates and counters of one process."""

    def __init__(self):
        self.owner = os.getpid()
        self.spans: list[tuple] = []
        self.agg: dict[tuple, list[int]] = {}
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self._pid = None
        self.reset()

    def reset(self) -> None:
        """Empty every buffer in place, keeping the objects closures hold."""
        self.spans.clear()
        self.agg.clear()
        self.counts.clear()
        self.stack.clear()
        self.unit = None
        if self._pid != os.getpid():
            # span ids stay unique across the processes of a --jobs sweep
            self._pid = os.getpid()
            self._next = self._pid * 10**9

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def full(self, name: str, fn, inspect=None):
        """Wrap fn so every call records a span; inspect(result) may count."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = self.new_id()
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.unit))
            if inspect is not None:
                inspect(result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap fn as an aggregated leaf span: count and total per parent."""
        agg, stack = self.agg, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                key = (stack[-1] if stack else None, name)
                entry = agg.get(key)
                if entry is None:
                    agg[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def leaf_iter(self, name: str, method):
        """Wrap a generator method; each next() is one aggregated leaf call."""
        agg, stack, counts = self.agg, self.stack, self.counts

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            it = method(*args, **kwargs)
            key = (stack[-1] if stack else None, name)
            entry = agg.setdefault(key, [0, 0])
            while True:
                start = now()
                try:
                    item = next(it)
                except StopIteration:
                    entry[1] += now() - start
                    return
                entry[0] += 1
                entry[1] += now() - start
                counts[name] += 1
                yield item

        return wrapper

    def payload(self) -> tuple:
        return list(self.spans), list(self.agg.items()), dict(self.counts)

    def merge(self, payload: tuple) -> None:
        spans, agg, counts = payload
        self.spans.extend(spans)
        for key, (calls, total) in agg:
            entry = self.agg.setdefault(key, [0, 0])
            entry[0] += calls
            entry[1] += total
        self.counts.update(counts)

    # -- reading the trace -------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: calls, total ns and self ns."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for sid, name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        for (parent, name), (n, ns) in self.agg.items():
            calls[name] += n
            total[name] += ns
            if parent is not None:
                child[parent] += ns
        own: Counter = Counter()
        for sid, name, start, end, parent, _ in self.spans:
            own[name] += end - start - child[sid]
        for (_, name), (_, ns) in self.agg.items():
            own[name] += ns
        return dict(calls), dict(total), dict(own)

    def write(self, path: str) -> None:
        """Write every span and aggregate as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(["span", *span]) + "\n")
            for (parent, name), (calls, total) in self.agg.items():
                fh.write(json.dumps(["agg", parent, name, calls, total]) + "\n")


def _hit_key(result) -> str:
    ctx = result.context
    number = getattr(ctx, "case_number", 0)
    return f"families.hits.{result.case}-{number}-{len(result.reductions)}"


def install(tr: Tracer) -> None:
    """Wrap the seams between the tokengraphs layers; call before the sweep."""
    from tokengraphs import cli, families, tokens

    counts = tr.counts

    def token_graph_sizes(tg):
        counts["tokens.fk_vertices"] += tg.n
        counts["tokens.fk_edges"] += tg.edge_count

    def family_counts(result):
        counts["families.paths_out"] += len(result.family)
        counts[_hit_key(result)] += 1

    for name, layer in (
        ("vertex_connectivity", "connectivity"),
        ("edge_connectivity", "connectivity"),
        ("min_token_degree", "tokens"),
        ("enumerate_trees", "graphs"),
        ("parse_graph6", "graphs"),
        ("emit_graph6", "graphs"),
        ("girth", "graphs"),
    ):
        setattr(cli, name, tr.full(f"{layer}.{name}", getattr(cli, name)))
    cli.build_token_graph = tr.full(
        "tokens.build_token_graph", cli.build_token_graph, token_graph_sizes
    )
    cli.build_family = tr.full("families.build_family", cli.build_family, family_counts)
    cli.print = tr.leaf("cli.write", print)
    tokens.TokenGraph.as_graph = tr.full("tokens.as_graph", tokens.TokenGraph.as_graph)
    tokens.TokenGraph.distance2_pairs = tr.leaf_iter(
        "tokens.distance2_pairs", tokens.TokenGraph.distance2_pairs
    )
    families.normalize = tr.leaf("families.normalize", families.normalize)
    families.TokenPath = tr.leaf("moves.token_path", families.TokenPath)
    families.check_trace = tr.leaf("moves.check_trace", families.check_trace)
    families.pairwise_internally_disjoint = tr.leaf(
        "moves.disjoint", families.pairwise_internally_disjoint
    )

    run_unit = tr.full("cli.unit", cli._pool_worker)

    @functools.wraps(cli._pool_worker)
    def pool_worker(task):
        if os.getpid() == tr.owner:
            tr.unit = repr(task[1])
            try:
                return run_unit(task), None
            finally:
                tr.unit = None
        # a --jobs worker: start from empty buffers and ship them back
        tr.reset()
        tr.unit = repr(task[1])
        record = run_unit(task)
        payload = tr.payload()
        tr.reset()
        return record, payload

    run_units = cli._run_units

    @functools.wraps(run_units)
    def traced_run_units(mode, units, jobs):
        it = run_units(mode, units, jobs)
        wait = tr.full("cli.wait", next)
        while True:
            try:
                record, payload = wait(it)
            except StopIteration:
                return
            if payload is not None:
                tr.merge(payload)
            yield record

    cli._pool_worker = pool_worker
    cli._run_units = traced_run_units


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced sweep, times in seconds.

    Every span name yields `<name>_s` (total time) and `<name>_calls`; the
    counters are reported under their own names.
    """
    calls, total, own = tr.totals()
    m: dict[str, float] = dict(tr.counts)
    for name, ns in total.items():
        m[f"{name}_s"] = ns / 1e9
        m[f"{name}_calls"] = calls[name]
    m["families.self_s"] = own.get("families.build_family", 0) / 1e9
    m["cli.parent_wait_s"] = own.get("cli.wait", 0) / 1e9
    m["cli.self_s"] = (own.get("cli.main", 0) + own.get("cli.unit", 0)) / 1e9
    families = calls.get("families.build_family", 0)
    if families:
        m["moves.replays_per_path"] = calls["moves.token_path"] / tr.counts["families.paths_out"]
        m["moves.disjoint_calls_per_family"] = calls["moves.disjoint"] / families
    return m


def self_table(tr: Tracer) -> list[str]:
    """Human-readable rows: span name, calls, total and self seconds."""
    calls, total, own = tr.totals()
    rows = [f"{'span':34} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
    for name in sorted(total, key=lambda k: -own.get(k, 0)):
        rows.append(
            f"{name:34} {calls[name]:9d} {total[name] / 1e9:9.3f} {own.get(name, 0) / 1e9:9.3f}"
        )
    return rows
