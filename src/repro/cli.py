"""Command-line interface: ``python -m repro <command>``.

Four commands cover the common workflows without writing any code:

* ``figure`` — regenerate one (or all) of the paper's figures, or one study
  table by its registry key;
* ``dataset`` — generate and describe a synthetic dataset;
* ``trace`` — record the page-access trace of a query set to JSON;
* ``replay`` — replay a recorded trace against a replacement policy;
* ``events`` — record or replay a full buffer-event trace (JSON lines):
  ``events record`` runs a query set under a policy with tracing on,
  ``events replay`` re-runs a recorded trace (optionally under a different
  policy), verifies determinism, and prints windowed metrics;
* ``advise`` — recommend a buffer size and policy for a recorded trace;
* ``tune fit`` — fit expert-ensemble weights offline from a recorded
  event trace (one ghost cache per expert + the controller's
  multiplicative-weights update) and write a loadable weights artifact
  for ``BufferSystem.build(tuning=TuningSpec(weights_path=...))`` and
  ``serve --tune --tune-mode ensemble --tune-weights ...``;
* ``map`` — render a dataset (and optionally a query set) as ASCII density
  maps;
* ``reproduce`` — run every figure and ablation, writing a markdown report;
* ``serve`` — run the asyncio page-service front-end over a durable,
  sharded buffer system (ctrl-C drains dirty frames through the WAL
  before exiting);
* ``bench tuning`` — phase-shifting workload scored per phase: static
  expert policies vs the self-tuning buffer (ghost caches + controller),
  including the ghost wall-clock overhead (writes ``BENCH_tuning.json``);
* ``bench ablation`` — baseline-plus-one-off component matrix over
  hostile + locality access-graph workloads, ranking each component by
  measured importance (writes ``BENCH_ablation.json``);
* ``bench cluster`` — multi-node distributed tier: aggregate-throughput
  scaling sweep over 1→N consistent-hash nodes, a replica + far-buffer
  scenario, and a randomized invalidation soak asserting zero stale
  reads (writes ``BENCH_cluster.json``);
* ``bench matrix`` — the robustness matrix: every replacement policy ×
  every spatial index (R*-tree, mqr-tree, grid file) × every workload
  (phased, access-graph walk, paper-scale mainland queries), built from
  the streamed Database-1-like generator, with ranked hit-rate tables,
  an R*-tree ground-truth agreement check and an optional replay of the
  recorded production-day server trace (writes ``BENCH_matrix.json``);
* ``bench check`` — the regression gate: validates the committed
  ``BENCH_*.json`` reports and (with ``--candidate DIR``) fails on >10%
  direction-aware metric regressions with a readable diff.

Throughput and latency of the stack itself — core fetch loop, sharded
buffer, page service, WAL — are measured by ``python3 bench/run.py``
(``BENCHMARK.json``), not by a ``bench`` subcommand.

Examples::

    python -m repro figure 13
    python -m repro figure all --objects 10000 --queries 150
    python -m repro figure ablation_knn
    python -m repro dataset db2 --objects 50000
    python -m repro trace --set INT-W-100 --out /tmp/trace.json
    python -m repro replay /tmp/trace.json --policy ASB --capacity 64
    python -m repro events record --set S-W-100 --policy ASB --out /tmp/t.jsonl
    python -m repro events replay /tmp/t.jsonl --policy LRU
    python -m repro tune fit /tmp/t.jsonl --out weights.json
    python -m repro serve --tune --tune-mode ensemble --tune-weights weights.json
    python -m repro serve --port 7007 --policy ASB --shards 4
    python -m repro bench tuning --out BENCH_tuning.json
    python -m repro bench ablation --workers 4 --out BENCH_ablation.json
    python -m repro bench cluster --nodes 1,2,4 --out BENCH_cluster.json
    python -m repro bench matrix --replay --out BENCH_matrix.json
    python -m repro bench matrix --scale paper --policies LRU,ASB
    python -m repro bench check --dir . --candidate /tmp/fresh
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.buffer.policies import UnknownPolicyError, make_policy, policy_names

#: Policy names accepted by ``--policy`` options, derived from the policy
#: registry (see :func:`repro.buffer.policies.make_policy`).  The "LRU-K"
#: meta-entry is excluded — the CLI offers the concrete LRU-2/3/5 variants.
POLICY_FACTORIES = {
    name: (lambda name=name: make_policy(name))
    for name in policy_names()
    if name != "LRU-K"
}


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
                       "'all' figures, or a study such as ablation_knn"
    )
    figure.add_argument("number", help="figure number (13), 'all', or a "
                        "registry key (figure_13, ablation_knn)")
    figure.add_argument("--objects", type=int, default=40_000,
                        help="objects in database 1 (db2 scales to 3/4)")
    figure.add_argument("--queries", type=int, default=300,
                        help="queries per query set")
    figure.add_argument("--seed", type=int, default=7)

    dataset = commands.add_parser(
        "dataset", help="generate and describe a synthetic dataset"
    )
    dataset.add_argument("which", choices=["db1", "db2"])
    dataset.add_argument("--objects", type=int, default=40_000)
    dataset.add_argument("--seed", type=int, default=7)

    trace = commands.add_parser(
        "trace", help="record a query set's page-access trace to JSON"
    )
    trace.add_argument("--set", dest="set_name", default="S-W-100",
                       help="query set name (e.g. U-P, INT-W-33)")
    trace.add_argument("--out", required=True, help="output JSON path")
    trace.add_argument("--objects", type=int, default=20_000)
    trace.add_argument("--queries", type=int, default=200)
    trace.add_argument("--seed", type=int, default=7)

    replay = commands.add_parser(
        "replay", help="replay a recorded trace against a policy"
    )
    replay.add_argument("trace", help="trace JSON path")
    replay.add_argument("--policy", default="ASB",
                        choices=sorted(POLICY_FACTORIES))
    replay.add_argument("--capacity", type=int, default=64,
                        help="buffer size in pages")

    events = commands.add_parser(
        "events", help="record / replay full buffer-event traces (JSON lines)"
    )
    events_commands = events.add_subparsers(dest="events_command", required=True)

    events_record = events_commands.add_parser(
        "record", help="run a query set with tracing on, save the event trace"
    )
    events_record.add_argument("--set", dest="set_name", default="S-W-100",
                               help="query set name (e.g. U-P, INT-W-33)")
    events_record.add_argument("--policy", default="ASB",
                               choices=sorted(POLICY_FACTORIES))
    events_record.add_argument("--capacity", type=int, default=64,
                               help="buffer size in pages")
    events_record.add_argument("--out", required=True,
                               help="output JSON-lines path")
    events_record.add_argument("--objects", type=int, default=20_000)
    events_record.add_argument("--queries", type=int, default=200)
    events_record.add_argument("--seed", type=int, default=7)

    events_replay = events_commands.add_parser(
        "replay", help="re-run a recorded event trace, verify determinism"
    )
    events_replay.add_argument("trace", help="event-trace JSON-lines path")
    events_replay.add_argument("--policy", default=None,
                               choices=sorted(POLICY_FACTORIES),
                               help="replay policy (default: as recorded)")
    events_replay.add_argument("--capacity", type=int, default=None,
                               help="buffer size (default: as recorded)")
    events_replay.add_argument("--window", type=int, default=256,
                               help="rolling hit-ratio window")

    tune = commands.add_parser(
        "tune", help="offline tuning: fit ensemble weights from a trace"
    )
    tune_commands = tune.add_subparsers(dest="tune_command", required=True)

    tune_fit = tune_commands.add_parser(
        "fit", help="fit expert-ensemble weights from a recorded event trace"
    )
    tune_fit.add_argument("trace", help="event-trace JSON-lines path "
                                        "(from 'events record')")
    tune_fit.add_argument("--experts", default=None,
                          help="comma-separated expert policy names "
                               "(default: LRU,LRU-2,ASB,AWRP,EEVA)")
    tune_fit.add_argument("--capacity", type=int, default=None,
                          help="ghost-cache capacity (default: as recorded)")
    tune_fit.add_argument("--epoch", type=int, default=100,
                          help="epoch length in page accesses")
    tune_fit.add_argument("--eta", type=float, default=10.0,
                          help="multiplicative-weights learning rate")
    tune_fit.add_argument("--weight-floor", type=float, default=0.01,
                          help="minimum per-expert weight after each update")
    tune_fit.add_argument("--out", required=True,
                          help="output weights-artifact JSON path")

    advise = commands.add_parser(
        "advise", help="recommend buffer size and policy for a trace"
    )
    advise.add_argument("trace", help="trace JSON path")
    advise.add_argument("--coverage", type=float, default=0.9,
                        help="share of achievable hits the size must reach")

    map_cmd = commands.add_parser(
        "map", help="render dataset / query densities as ASCII maps"
    )
    map_cmd.add_argument("which", choices=["db1", "db2"])
    map_cmd.add_argument("--objects", type=int, default=30_000)
    map_cmd.add_argument("--seed", type=int, default=7)
    map_cmd.add_argument("--set", dest="set_name", default=None,
                         help="also render this query set's density")
    map_cmd.add_argument("--queries", type=int, default=500)
    map_cmd.add_argument("--width", type=int, default=72)
    map_cmd.add_argument("--height", type=int, default=24)

    reproduce = commands.add_parser(
        "reproduce", help="run every figure + ablation into a report"
    )
    reproduce.add_argument("--out", required=True, help="output directory")
    reproduce.add_argument("--objects", type=int, default=40_000)
    reproduce.add_argument("--queries", type=int, default=300)
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
    serve.add_argument("--pages", type=int, default=512,
                       help="pages preloaded on the durable disk")
    serve.add_argument("--page-size", type=int, default=512)
    serve.add_argument("--max-inflight", type=int, default=16,
                       help="requests executing at once")
    serve.add_argument("--max-queued", type=int, default=64,
                       help="requests allowed to wait for a slot")
    serve.add_argument("--per-client-limit", type=int, default=None,
                       help="one client's admitted+queued bound")
    serve.add_argument("--request-timeout", type=float, default=None,
                       help="seconds before a request fails with TIMEOUT")
    serve.add_argument("--tune", action="store_true",
                       help="attach the self-tuning controller (ghost "
                            "caches; state appears under STATS)")
    serve.add_argument("--tune-mode", choices=["select", "ensemble"],
                       default="select",
                       help="controller mode: 'select' races ghost "
                            "candidates winner-take-all, 'ensemble' "
                            "reweights an expert mixture per epoch")
    serve.add_argument("--tune-weights", default=None, metavar="PATH",
                       help="weights artifact from 'tune fit' used as "
                            "the ensemble's starting mixture "
                            "(requires --tune-mode ensemble)")
    serve.add_argument("--uvloop", choices=["auto", "on", "off"],
                       default="off",
                       help="event loop: 'on' requires uvloop, 'auto' "
                            "uses it when installed, 'off' (default) "
                            "keeps the stock asyncio loop")

    bench = commands.add_parser(
        "bench", help="performance benchmarks of the buffer services"
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    tuning = bench_commands.add_parser(
        "tuning",
        help="phase-shifting workload: adaptive buffer vs static experts",
    )
    tuning.add_argument("--objects", type=int, default=20_000)
    tuning.add_argument("--queries", type=int, default=400,
                        help="queries per workload phase")
    tuning.add_argument("--fraction", type=float, default=0.05,
                        help="buffer size relative to the tree's pages")
    tuning.add_argument("--epoch", type=int, default=100,
                        help="tuning epoch length in page accesses")
    tuning.add_argument("--policy", default="LRU",
                        choices=sorted(POLICY_FACTORIES),
                        help="starting (deliberately naive) live policy")
    tuning.add_argument("--latency-us", type=float, default=100.0,
                        help="simulated SSD read latency in microseconds")
    tuning.add_argument("--sample", type=float, default=0.15,
                        help="SHARDS-style ghost sampling rate (0, 1]")
    tuning.add_argument("--eta", type=float, default=16.0,
                        help="ensemble multiplicative-weights learning "
                             "rate")
    tuning.add_argument("--ensemble-epoch", type=int, default=60,
                        help="ensemble epoch length (the mixture profits "
                             "from faster updates than the selector)")
    tuning.add_argument("--ensemble-sample", type=float, default=0.2,
                        help="ghost sampling rate for the ensemble's "
                             "expert shadows (0, 1]")
    tuning.add_argument("--reps", type=int, default=5,
                        help="repetitions for the min-of-N overhead timing")
    tuning.add_argument("--seed", type=int, default=7)
    tuning.add_argument("--out", default="BENCH_tuning.json",
                        help="output JSON path")
    ablation = bench_commands.add_parser(
        "ablation",
        help="baseline-plus-one-off component matrix with importance ranking",
    )
    ablation.add_argument("--capacity", type=int, default=32,
                          help="buffer frames")
    ablation.add_argument("--shards", type=int, default=2)
    ablation.add_argument("--workers", type=int, default=4,
                          help="driver threads (1 = serial, deterministic)")
    ablation.add_argument("--length", type=int, default=4_000,
                          help="requests per workload reference string")
    ablation.add_argument("--write-every", type=int, default=4,
                          help="every Nth access is a page update")
    ablation.add_argument("--commit-every", type=int, default=16,
                          help="commit after every Nth access")
    ablation.add_argument("--epoch", type=int, default=400,
                          help="tuning epoch length in page accesses")
    ablation.add_argument("--latency-us", type=float, default=20.0,
                          help="simulated SSD read latency in microseconds")
    ablation.add_argument("--start-policy", default="MRU",
                          choices=sorted(POLICY_FACTORIES),
                          help="deliberately naive live policy the tuner "
                               "is expected to fix")
    ablation.add_argument("--seed", type=int, default=7)
    ablation.add_argument("--out", default="BENCH_ablation.json",
                          help="output JSON path ('' = don't write)")
    cluster = bench_commands.add_parser(
        "cluster",
        help="multi-node scaling sweep, replica/far tier, invalidation soak",
    )
    cluster.add_argument("--nodes", default="1,2,4",
                         help="comma-separated data-node counts to sweep")
    cluster.add_argument("--clients", default="1,2,4,8",
                         help="comma-separated client thread counts")
    cluster.add_argument("--pages", type=int, default=1024,
                         help="seeded pages per fleet")
    cluster.add_argument("--capacity", type=int, default=32,
                         help="buffer frames per data node")
    cluster.add_argument("--workers", type=int, default=2,
                         help="server worker threads per node")
    cluster.add_argument("--read-delay-ms", type=float, default=2.0,
                         help="simulated disk read latency per page")
    cluster.add_argument("--batch", type=int, default=16,
                         help="pages per FETCH_MANY batch")
    cluster.add_argument("--batches-per-client", type=int, default=30)
    cluster.add_argument("--replicas", type=int, default=1,
                         help="read replicas per hot page (tiered scenario)")
    cluster.add_argument("--far-capacity", type=int, default=256,
                         help="far-buffer node capacity in pages")
    cluster.add_argument("--soak-seconds", type=float, default=3.0,
                         help="invalidation soak duration")
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument("--no-gate", action="store_true",
                         help="report only; do not fail on the acceptance "
                              "guards (scaling >= 2.5x, zero stale reads, "
                              "replica and far hits seen, accounting)")
    cluster.add_argument("--out", default="BENCH_cluster.json",
                         help="output JSON path ('' = don't write)")
    matrix = bench_commands.add_parser(
        "matrix",
        help="policy × spatial-index × workload robustness matrix",
    )
    matrix.add_argument("--objects", type=int, default=8_000,
                        help="streamed dataset size (objects per index)")
    matrix.add_argument("--scale", default=None,
                        help="multiply --objects by this factor, or 'paper' "
                             "for the paper's Database-1 size (1,641,079)")
    matrix.add_argument("--queries", type=int, default=320,
                        help="queries per spatial workload leg")
    matrix.add_argument("--graph-length", type=int, default=4_000,
                        help="page references in the access-graph walk")
    matrix.add_argument("--policies", default=",".join(
                            ("LRU", "LRU-2", "ASB", "AWRP", "ENSEMBLE")),
                        help="comma-separated replacement policies")
    matrix.add_argument("--indexes", default="rstar,mqr,gridfile",
                        help="comma-separated index kinds "
                             "(rstar, mqr, gridfile)")
    matrix.add_argument("--workloads", default="phased,graph,mainland",
                        help="comma-separated workload legs")
    matrix.add_argument("--buffer-fraction", type=float, default=0.047,
                        help="buffer frames as a fraction of index pages")
    matrix.add_argument("--replay", nargs="?", const="tests/golden/"
                        "production_day.jsonl", default=None, metavar="TRACE",
                        help="also replay the recorded production-day "
                             "server trace under every policy (optionally "
                             "give an alternative trace path)")
    matrix.add_argument("--seed", type=int, default=7)
    matrix.add_argument("--no-gate", action="store_true",
                        help="report only; do not fail on the acceptance "
                             "checks (coverage, accounting, index "
                             "agreement)")
    matrix.add_argument("--out", default="BENCH_matrix.json",
                        help="output JSON path ('' = don't write)")
    check = bench_commands.add_parser(
        "check",
        help="regression gate over the committed BENCH_*.json reports",
    )
    check.add_argument("--dir", default=".",
                       help="directory holding the committed baseline "
                            "BENCH_*.json reports")
    check.add_argument("--candidate", default=None,
                       help="directory of freshly generated reports to "
                            "compare against the baseline (omit to only "
                            "validate the committed reports)")
    check.add_argument("--threshold", type=float, default=0.10,
                       help="relative regression tolerance (0.10 = 10%%)")
    check.add_argument("--include-timing", action="store_true",
                       help="also gate wall-clock metrics (noisy; off by "
                            "default)")
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


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import us_mainland_like
    from repro.experiments.harness import build_database
    from repro.experiments.trace import record_trace

    database = build_database(
        us_mainland_like(n_objects=args.objects, seed=args.seed)
    )
    query_set = database.query_set(args.set_name, args.queries, args.seed)
    trace = record_trace(database.tree, query_set)
    trace.save(args.out)
    print(
        f"recorded {len(trace)} references over {trace.query_count} queries "
        f"({trace.distinct_pages} distinct pages) -> {args.out}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.experiments.trace import AccessTrace, replay_trace

    trace = AccessTrace.load(args.trace)
    policy = POLICY_FACTORIES[args.policy]()
    stats = replay_trace(trace, policy, args.capacity)
    print(
        f"{args.policy} @ {args.capacity} pages: "
        f"{stats.misses} disk reads, {stats.hits} hits "
        f"(hit ratio {stats.hit_ratio:.1%}) over {stats.requests} requests"
    )
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    if args.events_command == "record":
        return _cmd_events_record(args)
    return _cmd_events_replay(args)


def _cmd_events_record(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import us_mainland_like
    from repro.experiments.harness import build_database
    from repro.experiments.trace import record_event_trace, record_trace

    database = build_database(
        us_mainland_like(n_objects=args.objects, seed=args.seed)
    )
    query_set = database.query_set(args.set_name, args.queries, args.seed)
    access_trace = record_trace(database.tree, query_set)
    policy = POLICY_FACTORIES[args.policy]()
    recorded = record_event_trace(access_trace, policy, args.capacity)
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
    from repro.obs.trace import disk_from_catalogue, drive_requests
    from repro.buffer.manager import BufferManager

    recorded = RecordedTrace.load(args.trace)
    policy_name = args.policy or recorded.policy
    if policy_name not in POLICY_FACTORIES:
        print(f"unknown recorded policy {policy_name!r}; pass --policy",
              file=sys.stderr)
        return 2
    capacity = args.capacity or recorded.capacity
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
    # Windowed metrics of the replayed stream.
    metrics = WindowedMetrics(window=args.window)
    buffer = BufferManager(
        disk_from_catalogue(recorded.catalogue),
        capacity,
        POLICY_FACTORIES[policy_name](),
        observer=metrics,
    )
    drive_requests(buffer, recorded.requests())
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


def _cmd_tune(args: argparse.Namespace) -> int:
    return _cmd_tune_fit(args)


def _cmd_tune_fit(args: argparse.Namespace) -> int:
    from repro.obs import RecordedTrace
    from repro.tuning import fit_weights

    recorded = RecordedTrace.load(args.trace)
    experts = None
    if args.experts:
        experts = tuple(
            name.strip() for name in args.experts.split(",") if name.strip()
        )
    try:
        fitted = fit_weights(
            recorded,
            experts=experts,
            capacity=args.capacity,
            epoch_length=args.epoch,
            eta=args.eta,
            weight_floor=args.weight_floor,
        )
    except (UnknownPolicyError, ValueError) as error:
        print(f"tune fit: {error}", file=sys.stderr)
        return 2
    fitted.save(args.out)
    meta = fitted.meta
    print(
        f"fitted {len(fitted.experts)} experts over "
        f"{meta['requests']} requests ({meta['epochs']} epochs of "
        f"{fitted.epoch_length}) at capacity {meta['fit_capacity']}"
    )
    ratios = meta.get("expert_hit_ratios", {})
    for name, weight in sorted(
        zip(fitted.experts, fitted.weights), key=lambda pair: -pair[1]
    ):
        ratio = ratios.get(name)
        detail = f" (hit ratio {ratio:.1%})" if ratio is not None else ""
        print(f"  {name:<8} weight {weight:.3f}{detail}")
    print(f"weights artifact -> {args.out}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.experiments.advisor import advise_from_trace
    from repro.experiments.trace import AccessTrace

    trace = AccessTrace.load(args.trace)
    advice = advise_from_trace(trace, coverage=args.coverage)
    print(advice.to_text())
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.datasets.places import synthetic_places
    from repro.datasets.render import density_map, query_map
    from repro.datasets.synthetic import us_mainland_like, world_atlas_like
    from repro.workloads.sets import make_query_set

    generator = us_mainland_like if args.which == "db1" else world_atlas_like
    dataset = generator(n_objects=args.objects, seed=args.seed)
    print(f"object density of {dataset.name}:")
    print(density_map(dataset, columns=args.width, rows=args.height))
    if args.set_name:
        places = synthetic_places(dataset, count=1_000, seed=args.seed)
        queries = make_query_set(
            args.set_name, dataset, places, args.queries, args.seed
        )
        print(f"\nquery density of {args.set_name}:")
        print(
            query_map(
                queries.queries, dataset.space,
                columns=args.width, rows=args.height,
            )
        )
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
    from repro.server import PageServer, UvloopUnavailable, install_uvloop
    from repro.storage import seed_page

    try:
        accelerated = install_uvloop(args.uvloop)
    except UvloopUnavailable as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    tuning = None
    if args.tune:
        from repro.tuning import TuningSpec

        if args.tune_weights and args.tune_mode != "ensemble":
            print("serve: --tune-weights requires --tune-mode ensemble",
                  file=sys.stderr)
            return 2
        tuning = TuningSpec(mode=args.tune_mode,
                            weights_path=args.tune_weights)
    elif args.tune_mode != "select" or args.tune_weights:
        print("serve: --tune-mode/--tune-weights require --tune",
              file=sys.stderr)
        return 2
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
        loop_name = "uvloop" if accelerated else "asyncio"
        print(
            f"page service on {server.host}:{server.port} — "
            f"{args.policy} @ {args.capacity} frames, "
            f"{args.shards} shard(s), {args.pages} pages, "
            f"{loop_name} loop (ctrl-C to drain)"
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


def _cmd_bench(args: argparse.Namespace) -> int:
    handlers = {
        "tuning": _cmd_bench_tuning,
        "ablation": _cmd_bench_ablation,
        "cluster": _cmd_bench_cluster,
        "matrix": _cmd_bench_matrix,
        "check": _cmd_bench_check,
    }
    return handlers[args.bench_command](args)


def _cmd_bench_cluster(args: argparse.Namespace) -> int:
    from repro.experiments.clusterbench import (
        ClusterBenchParams,
        run_cluster_bench,
    )

    params = ClusterBenchParams(
        nodes=tuple(int(n) for n in args.nodes.split(",")),
        clients=tuple(int(c) for c in args.clients.split(",")),
        pages=args.pages,
        capacity=args.capacity,
        workers=args.workers,
        read_delay_ms=args.read_delay_ms,
        batch=args.batch,
        batches_per_client=args.batches_per_client,
        replicas=args.replicas,
        far_capacity=args.far_capacity,
        soak_seconds=args.soak_seconds,
        seed=args.seed,
    )
    report = run_cluster_bench(params)
    print(report.to_text())
    if args.out:
        report.save(args.out)
        print(f"wrote cluster bench report -> {args.out}")
    if args.no_gate:
        return 0
    failed = sorted(
        flag for flag, ok in report.acceptance().items() if not ok
    )
    if failed:
        print(f"bench cluster: acceptance failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import AblationParams, run_ablation

    params = AblationParams(
        capacity=args.capacity,
        shards=args.shards,
        workers=args.workers,
        length=args.length,
        seed=args.seed,
        write_every=args.write_every,
        commit_every=args.commit_every,
        epoch_length=args.epoch,
        read_delay_us=args.latency_us,
        start_policy=args.start_policy,
    )
    report = run_ablation(params)
    print(report.to_text())
    if args.out:
        report.save(args.out)
        print(f"wrote ablation report -> {args.out}")
    verdict = report.acceptance()
    ok = (
        verdict["at_least_5_components"]
        and verdict["accounting_identity_holds"]
        and verdict["includes_hostile_workload"]
    )
    return 0 if ok else 1


def _cmd_bench_matrix(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic import PAPER_DB1_OBJECTS
    from repro.experiments.matrix import MatrixParams, run_matrix

    n_objects = args.objects
    if args.scale is not None:
        if args.scale == "paper":
            n_objects = PAPER_DB1_OBJECTS
        else:
            try:
                factor = float(args.scale)
            except ValueError:
                print(f"bench matrix: --scale must be a number or 'paper', "
                      f"got {args.scale!r}", file=sys.stderr)
                return 2
            n_objects = max(1, round(n_objects * factor))
    try:
        params = MatrixParams(
            n_objects=n_objects,
            n_queries=args.queries,
            seed=args.seed,
            buffer_fraction=args.buffer_fraction,
            graph_length=args.graph_length,
            policies=tuple(p.strip() for p in args.policies.split(",") if p),
            indexes=tuple(i.strip() for i in args.indexes.split(",") if i),
            workloads=tuple(w.strip() for w in args.workloads.split(",") if w),
            replay_trace=args.replay,
        )
    except ValueError as exc:
        print(f"bench matrix: {exc}", file=sys.stderr)
        return 2
    report = run_matrix(params)
    print(report.to_text())
    if args.out:
        report.save(args.out)
        print(f"wrote matrix report -> {args.out}")
    if args.no_gate:
        return 0
    verdict = report.acceptance()
    ok = True
    for key in (
        "accounting_identity_holds",
        "indexes_agree_with_rstar",
    ):
        if not verdict[key]:
            print(f"bench matrix: acceptance check failed: {key}",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.experiments.benchcheck import BenchCheckError, check_directory

    try:
        result = check_directory(
            bench_dir=args.dir,
            candidate_dir=args.candidate,
            threshold=args.threshold,
            include_timing=args.include_timing,
        )
    except BenchCheckError as exc:
        print(f"bench check: {exc}", file=sys.stderr)
        return 2
    print(result.to_text())
    return 0 if result.ok else 1


def _cmd_bench_tuning(args: argparse.Namespace) -> int:
    from repro.experiments.tuningbench import run_tuning_bench

    report = run_tuning_bench(
        objects=args.objects,
        queries_per_phase=args.queries,
        buffer_fraction=args.fraction,
        seed=args.seed,
        epoch_length=args.epoch,
        start_policy=args.policy,
        read_latency_us=args.latency_us,
        sample=args.sample,
        overhead_reps=args.reps,
        eta=args.eta,
        ensemble_epoch_length=args.ensemble_epoch,
        ensemble_sample=args.ensemble_sample,
    )
    print(report.to_text())
    verdict = report.acceptance()
    if args.out:
        report.save(args.out)
        print(f"wrote tuning bench report -> {args.out}")
    if not verdict["adapted_at_least_once"]:
        print("the controller never adapted — tuning is inert on this "
              "workload", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "figure": _cmd_figure,
        "dataset": _cmd_dataset,
        "trace": _cmd_trace,
        "replay": _cmd_replay,
        "events": _cmd_events,
        "tune": _cmd_tune,
        "advise": _cmd_advise,
        "map": _cmd_map,
        "reproduce": _cmd_reproduce,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)
