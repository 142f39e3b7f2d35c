"""Command-line interface: ``python -m repro <command>``.

Five commands cover the common workflows without writing any code:

* ``figure`` — regenerate one (or all) of the paper's figures, or one study
  table by its registry key;
* ``dataset`` — generate and describe a synthetic dataset;
* ``events`` — record or replay a buffer-event trace (JSON lines):
  ``events record`` runs a query set under a policy with tracing on,
  ``events replay`` re-runs a recorded trace (optionally under a different
  policy or capacity), prints its disk reads, verifies determinism, and
  prints windowed metrics;
* ``reproduce`` — run every figure and study table, writing a markdown
  report;
* ``serve`` — run the asyncio page-service front-end over a durable,
  sharded buffer system (ctrl-C drains dirty frames through the WAL
  before exiting).

Throughput, latency and disk reads relative to LRU of the stack itself —
core fetch loop, sharded buffer, page service, WAL — are measured by
``python3 bench/run.py`` (``BENCHMARK.json``), not by a subcommand.

Examples::

    python -m repro figure 13
    python -m repro figure all --objects 10000 --queries 150
    python -m repro figure ablation_opt_gap
    python -m repro dataset db2 --objects 50000
    python -m repro events record --set S-W-100 --policy ASB --out /tmp/t.jsonl
    python -m repro events replay /tmp/t.jsonl --policy LRU
    python -m repro serve --tune --policy ASB
    python -m repro serve --port 7007 --policy ASB --shards 4
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.buffer.policies import make_policy, policy_names

#: Policy names accepted by ``--policy`` options, derived from the policy
#: registry (see :func:`repro.buffer.policies.make_policy`).  The "LRU-K"
#: meta-entry is excluded — the CLI offers the concrete LRU-2/3/5 variants.
POLICY_FACTORIES = {
    name: (lambda name=name: make_policy(name))
    for name in policy_names()
    if name != "LRU-K"
}


def _checked(convert, requirement: str, holds):
    """An argparse type for counts and limits: a bad value exits 2 naming
    the option, before any command runs."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return parse


_positive_int = _checked(int, "a positive integer", lambda value: value >= 1)
_non_negative_int = _checked(int, "a non-negative integer", lambda value: value >= 0)
_positive_float = _checked(float, "a positive number", lambda value: value > 0)


def _set_name(text: str) -> str:
    """An argparse type for ``--set``: a malformed query-set name exits 2
    naming the option, before the database is built."""
    from repro.workloads.sets import parse_set_name

    try:
        parse_set_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Brinkhoff (EDBT 2002): robust, self-tuning "
            "page replacement for spatial database systems."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figure = commands.add_parser(
        "figure", help="regenerate one table: a paper figure (4-9, 12-14), "
                       "'all' figures, or a study such as ablation_opt_gap"
    )
    figure.add_argument("number", help="figure number (13), 'all', or a "
                        "registry key (figure_13, ablation_opt_gap)")
    figure.add_argument("--objects", type=_positive_int, default=40_000,
                        help="objects in database 1 (db2 scales to 3/4)")
    figure.add_argument("--queries", type=_positive_int, default=300,
                        help="queries per query set")
    figure.add_argument("--seed", type=int, default=7)

    dataset = commands.add_parser(
        "dataset", help="generate and describe a synthetic dataset"
    )
    dataset.add_argument("which", choices=["db1", "db2"])
    dataset.add_argument("--objects", type=_positive_int, default=40_000)
    dataset.add_argument("--seed", type=int, default=7)

    events = commands.add_parser(
        "events", help="record / replay full buffer-event traces (JSON lines)"
    )
    events_commands = events.add_subparsers(dest="events_command", required=True)

    events_record = events_commands.add_parser(
        "record", help="run a query set with tracing on, save the event trace"
    )
    events_record.add_argument("--set", dest="set_name", type=_set_name,
                               default="S-W-100",
                               help="query set name (e.g. U-P, INT-W-33)")
    events_record.add_argument("--policy", default="ASB",
                               choices=sorted(POLICY_FACTORIES))
    events_record.add_argument("--capacity", type=_positive_int, default=64,
                               help="buffer size in pages")
    events_record.add_argument("--out", required=True,
                               help="output JSON-lines path")
    events_record.add_argument("--objects", type=_positive_int, default=20_000)
    events_record.add_argument("--queries", type=_positive_int, default=200)
    events_record.add_argument("--seed", type=int, default=7)

    events_replay = events_commands.add_parser(
        "replay", help="re-run a recorded event trace, verify determinism"
    )
    events_replay.add_argument("trace", help="event-trace JSON-lines path")
    events_replay.add_argument("--policy", default=None,
                               choices=sorted(POLICY_FACTORIES),
                               help="replay policy (default: as recorded)")
    events_replay.add_argument("--capacity", type=_positive_int, default=None,
                               help="buffer size (default: as recorded)")
    events_replay.add_argument("--window", type=_positive_int, default=256,
                               help="rolling hit-ratio window")

    reproduce = commands.add_parser(
        "reproduce", help="run every figure + study table into a report"
    )
    reproduce.add_argument("--out", required=True, help="output directory")
    reproduce.add_argument("--objects", type=_positive_int, default=40_000)
    reproduce.add_argument("--queries", type=_positive_int, default=300)
    reproduce.add_argument("--seed", type=int, default=7)
    reproduce.add_argument("--figures-only", action="store_true")

    serve = commands.add_parser(
        "serve", help="run the page-service front-end (ctrl-C to drain)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--policy", default="LRU",
                       choices=sorted(POLICY_FACTORIES))
    serve.add_argument("--capacity", type=int, default=128,
                       help="buffer frames")
    serve.add_argument("--shards", type=int, default=4,
                       help="buffer shards (0 = sequential core)")
    serve.add_argument("--pages", type=_positive_int, default=512,
                       help="pages preloaded on the durable disk")
    serve.add_argument("--page-size", type=_positive_int, default=512)
    serve.add_argument("--max-inflight", type=_positive_int, default=16,
                       help="requests executing at once")
    serve.add_argument("--max-queued", type=_non_negative_int, default=64,
                       help="requests allowed to wait for a slot")
    serve.add_argument("--per-client-limit", type=_positive_int, default=None,
                       help="one client's admitted+queued bound")
    serve.add_argument("--request-timeout", type=_positive_float, default=None,
                       help="seconds before a request fails with TIMEOUT")
    serve.add_argument("--tune", action="store_true",
                       help="attach the self-tuning controller (ghost "
                            "caches; state appears under STATS)")

    return parser


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_FIGURES, make_setup
    from repro.experiments.suite import ALL_ABLATIONS

    tables = ALL_FIGURES | ALL_ABLATIONS
    if args.number == "all":
        names = sorted(ALL_FIGURES)
    else:
        key = args.number
        if key.isdecimal():
            key = f"figure_{int(key):02d}"
        if key not in tables:
            print(
                f"no such figure: {args.number} (valid: all, a figure number, "
                f"or one of {', '.join(tables)})",
                file=sys.stderr,
            )
            return 2
        names = [key]
    setup = make_setup(
        n_objects_db1=args.objects,
        n_objects_db2=max(1_000, args.objects * 3 // 4),
        n_queries=args.queries,
        seed=args.seed,
    )
    for name in names:
        print(tables[name](setup).to_text())
        print()
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets.stats import describe
    from repro.datasets.synthetic import us_mainland_like, world_atlas_like

    generator = us_mainland_like if args.which == "db1" else world_atlas_like
    dataset = generator(n_objects=args.objects, seed=args.seed)
    print(describe(dataset))
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    if args.events_command == "record":
        return _cmd_events_record(args)
    return _cmd_events_replay(args)


def _cmd_events_record(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import us_mainland_like
    from repro.experiments.harness import build_database
    from repro.obs.trace import record_run, record_trace

    database = build_database(
        us_mainland_like(n_objects=args.objects, seed=args.seed)
    )
    query_set = database.query_set(args.set_name, args.queries, args.seed)
    references = record_trace(database.tree, query_set).references
    policy = POLICY_FACTORIES[args.policy]()
    recorded = record_run(
        references, database.tree.pagefile.disk, policy, args.capacity
    )
    recorded.save(args.out)
    by_kind = {}
    for event in recorded.events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
    kinds = ", ".join(f"{kind}={count}" for kind, count in sorted(by_kind.items()))
    print(
        f"recorded {len(recorded)} events ({kinds}) for {args.policy} @ "
        f"{args.capacity} pages -> {args.out}"
    )
    print(
        f"hit ratio {recorded.stats['hit_ratio']:.1%} over "
        f"{int(recorded.stats['requests'])} requests"
    )
    return 0


def _cmd_events_replay(args: argparse.Namespace) -> int:
    from repro.obs import RecordedTrace, WindowedMetrics, replay_recorded

    try:
        recorded = RecordedTrace.load(args.trace)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"repro: {args.trace}: {reason}", file=sys.stderr)
        return 2
    policy_name = args.policy or recorded.policy
    if policy_name not in POLICY_FACTORIES:
        print(f"unknown recorded policy {policy_name!r}; pass --policy",
              file=sys.stderr)
        return 2
    capacity = recorded.capacity if args.capacity is None else args.capacity
    policy = POLICY_FACTORIES[policy_name]()
    replayed = replay_recorded(recorded, policy, capacity)
    print(
        f"{policy_name} @ {capacity} pages: "
        f"{int(replayed.stats['misses'])} disk reads, "
        f"{int(replayed.stats['hits'])} hits "
        f"(hit ratio {replayed.stats['hit_ratio']:.1%}) over "
        f"{int(replayed.stats['requests'])} requests"
    )
    same_setup = policy_name == recorded.policy and capacity == recorded.capacity
    if same_setup:
        identical = (
            replayed.events == recorded.events
            and replayed.stats == recorded.stats
        )
        verdict = "verified" if identical else "FAILED"
        print(f"deterministic replay {verdict}: "
              f"{len(replayed)} events vs {len(recorded)} recorded")
        if not identical:
            return 1
    metrics = WindowedMetrics(window=args.window)
    for event in replayed.events:
        metrics.emit(event)
    summary = metrics.summary()
    print(f"rolling hit ratio (last {summary['window']}): "
          f"{summary['rolling_hit_ratio']:.1%}")
    ages = ", ".join(
        f"<={bound}: {count}" for bound, count in summary["eviction_age_buckets"]
    )
    print(f"eviction ages ({summary['evictions']} evictions): {ages or 'none'}")
    levels = ", ".join(
        f"level {level}: {ratio:.1%}"
        for level, ratio in summary["level_hit_ratios"].items()
    )
    print(f"hit ratio by level: {levels or 'n/a'}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.figures import make_setup
    from repro.experiments.suite import run_reproduction

    setup = make_setup(
        n_objects_db1=args.objects,
        n_objects_db2=max(1_000, args.objects * 3 // 4),
        n_queries=args.queries,
        seed=args.seed,
    )
    run = run_reproduction(
        setup,
        output_dir=args.out,
        include_ablations=not args.figures_only,
        progress=lambda name: print(f"running {name} ..."),
    )
    print(
        f"wrote {len(run.results)} experiment tables and REPORT.md to {args.out}"
    )
    if run.errors:
        for name, message in run.errors.items():
            print(f"FAILED {name}: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.api import BufferSystem
    from repro.server import PageServer
    from repro.storage import seed_page

    tuning = None
    if args.tune:
        from repro.tuning import TuningSpec

        tuning = TuningSpec()
    try:
        system = BufferSystem.build(
            policy=args.policy,
            capacity=args.capacity,
            shards=args.shards or None,
            durability=True,
            page_size=args.page_size,
            tuning=tuning,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    for page_id in range(args.pages):
        system.disk.store(seed_page(page_id))
    server = PageServer(
        system,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queued=args.max_queued,
        per_client_limit=args.per_client_limit,
        request_timeout=args.request_timeout,
        page_size=args.page_size,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"page service on {server.host}:{server.port} — "
            f"{args.policy} @ {args.capacity} frames, "
            f"{args.shards} shard(s), {args.pages} pages, "
            "asyncio loop (ctrl-C to drain)"
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
            print("drained and stopped")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "figure": _cmd_figure,
        "dataset": _cmd_dataset,
        "events": _cmd_events,
        "reproduce": _cmd_reproduce,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)
