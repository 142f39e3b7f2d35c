"""``bench check`` — the regression gate over ``BENCH_*.json`` reports.

The repo commits the reports of the four behavioural benches
(``BENCH_tuning.json``, ``BENCH_cluster.json``, ``BENCH_matrix.json``,
``BENCH_ablation.json``) as the baseline of record; throughput and
latency of the stack live in ``bench/run.py``, not here.  This module
turns the reports from documentation into a gate:

* **validate mode** (no candidate): every committed report must parse,
  carry the metrics its schema promises, satisfy its own acceptance
  guards (tuner adapted, zero stale reads, indexes agree, accounting
  identities, …) and name the same ``meta.git_rev`` as the others —
  reports from different revisions cannot be read as one picture.
  This is what CI runs on every PR — it catches schema drift and
  stale/corrupt reports the moment a writer changes shape;
* **compare mode** (``--candidate DIR``): a directory of freshly
  generated reports is compared metric-by-metric against the committed
  baseline.  Direction-aware relative deltas beyond the tolerance
  (default 10%) fail the gate with a readable diff naming the file,
  the metric, both values and the direction that counts as "better".

Wall-clock metrics (throughput, latency, seconds) are classified
``timing`` and skipped by default — they measure the host as much as
the code.  ``include_timing=True`` gates them too, for humans running
on a quiet box.  Counter metrics (hit ratios, disk reads, fsyncs) are
deterministic for a fixed seed, so a >10% shift is a code change, not
noise.

A missing or renamed metric is deliberately *not* a ``KeyError``: every
schema access goes through :func:`_get`, which raises
:class:`BenchCheckError` naming the file, the full metric path and the
component of the path that broke — the writer and this extractor must
move together.
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

__all__ = [
    "BenchCheckError",
    "Metric",
    "Guard",
    "CheckResult",
    "extract_report",
    "load_report",
    "compare_metrics",
    "check_directory",
    "DEFAULT_THRESHOLD",
]

#: Default relative tolerance before a metric delta fails the gate.
DEFAULT_THRESHOLD = 0.10


class BenchCheckError(Exception):
    """A report is missing, unreadable, or its schema has drifted."""


@dataclass(frozen=True)
class Metric:
    """One gated number: where it lives, its value, which way is better."""

    key: str
    value: float
    direction: str = "higher"  # "higher" or "lower" is better
    #: Wall-clock metrics are host-dependent; skipped unless asked for.
    timing: bool = False


@dataclass(frozen=True)
class Guard:
    """A boolean acceptance condition a report must satisfy outright."""

    key: str
    ok: bool


# ----------------------------------------------------------------------
# Schema access — every lookup produces a nameable error, never KeyError
# ----------------------------------------------------------------------


def _get(data, path: str, source: str):
    """Walk a dotted path, naming the exact break point on failure."""
    node = data
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise BenchCheckError(
                f"{source}: metric path '{path}' is missing at '{part}' — "
                "the report schema drifted; regenerate the report or update "
                "repro.experiments.benchcheck alongside the writer"
            )
        node = node[part]
    return node


def _number(data, path: str, source: str) -> float:
    value = _get(data, path, source)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BenchCheckError(
            f"{source}: metric '{path}' should be a number, found "
            f"{type(value).__name__} ({value!r})"
        )
    return float(value)


def _boolean(data, path: str, source: str) -> bool:
    value = _get(data, path, source)
    if not isinstance(value, bool):
        raise BenchCheckError(
            f"{source}: guard '{path}' should be a boolean, found "
            f"{type(value).__name__} ({value!r})"
        )
    return value


def _points(data, path: str, source: str, id_fields: Sequence[str]):
    """Yield ``(label, point)`` for a list of measurement dicts."""
    points = _get(data, path, source)
    if not isinstance(points, list) or not points:
        raise BenchCheckError(
            f"{source}: '{path}' should be a non-empty list of points"
        )
    for index, point in enumerate(points):
        if not isinstance(point, Mapping):
            raise BenchCheckError(
                f"{source}: '{path}[{index}]' should be an object"
            )
        missing = [name for name in id_fields if name not in point]
        if missing:
            raise BenchCheckError(
                f"{source}: '{path}[{index}]' lacks identifying field(s) "
                f"{missing} — cannot match it across runs"
            )
        label = ",".join(f"{name}={point[name]}" for name in id_fields)
        yield f"{path}[{label}]", point


def _accounting_guard(prefix: str, point: Mapping, source: str) -> Guard:
    hits = _number(point, "hits", source)
    misses = _number(point, "misses", source)
    requests = _number(point, "requests", source)
    return Guard(f"{prefix}.accounting(hits+misses==requests)",
                 hits + misses == requests)


# ----------------------------------------------------------------------
# Per-benchmark extractors (writer and extractor move together)
# ----------------------------------------------------------------------


def _extract_tuning(data, source: str):
    metrics = [
        Metric("adaptive.overall_hit_ratio",
               _number(data, "adaptive.overall_hit_ratio", source)),
        Metric("ensemble.overall_hit_ratio",
               _number(data, "ensemble.overall_hit_ratio", source)),
        Metric("acceptance.ghost_overhead",
               _number(data, "acceptance.ghost_overhead", source),
               "lower", timing=True),
        Metric("acceptance.ensemble_overhead",
               _number(data, "acceptance.ensemble_overhead", source),
               "lower", timing=True),
    ]
    guards = [
        Guard("acceptance.beats_worst_static_overall",
              _boolean(data, "acceptance.beats_worst_static_overall", source)),
        Guard("acceptance.adapted_at_least_once",
              _boolean(data, "acceptance.adapted_at_least_once", source)),
        Guard("acceptance.ghost_overhead_leq_10pct",
              _boolean(data, "acceptance.ghost_overhead_leq_10pct", source)),
        Guard("acceptance.beats_every_static_overall",
              _boolean(data, "acceptance.beats_every_static_overall", source)),
        Guard("acceptance.ensemble_overhead_leq_10pct",
              _boolean(data, "acceptance.ensemble_overhead_leq_10pct", source)),
    ]
    return metrics, guards


def _extract_ablation(data, source: str):
    metrics = [
        Metric("baseline.overall.hit_rate",
               _number(data, "baseline.overall.hit_rate", source)),
        Metric("baseline.overall.disk_reads",
               _number(data, "baseline.overall.disk_reads", source), "lower"),
        Metric("baseline.overall.fsyncs",
               _number(data, "baseline.overall.fsyncs", source), "lower"),
        Metric("baseline.overall.throughput",
               _number(data, "baseline.overall.throughput", source),
               "higher", timing=True),
    ]
    guards = [
        Guard("acceptance.at_least_5_components",
              _boolean(data, "acceptance.at_least_5_components", source)),
        Guard("acceptance.accounting_identity_holds",
              _boolean(data, "acceptance.accounting_identity_holds", source)),
        Guard("acceptance.includes_hostile_workload",
              _boolean(data, "acceptance.includes_hostile_workload", source)),
        Guard("baseline.overall.accounting_ok",
              _boolean(data, "baseline.overall.accounting_ok", source)),
    ]
    return metrics, guards


def _extract_cluster(data, source: str):
    metrics, guards = [], []
    for prefix, point in _points(
        data, "points", source, ("nodes", "clients")
    ):
        metrics.append(
            Metric(f"{prefix}.throughput",
                   _number(point, "throughput", source), "higher",
                   timing=True)
        )
        metrics.append(
            Metric(f"{prefix}.p99_ms",
                   _number(point, "p99_ms", source), "lower", timing=True)
        )
    metrics.append(
        Metric("scaling_factor",
               _number(data, "scaling_factor", source), "higher",
               timing=True)
    )
    metrics.append(
        Metric("tiered.replica_hit_share",
               _number(data, "tiered.replica_hit_share", source), "higher",
               timing=True)
    )
    metrics.append(
        Metric("tiered.far_hit_share",
               _number(data, "tiered.far_hit_share", source), "higher",
               timing=True)
    )
    guards.append(
        Guard("soak.stale_reads==0",
              _number(data, "soak.stale_reads", source) == 0)
    )
    for name in (
        "scaling_factor_geq_2_5x",
        "zero_stale_reads",
        "replica_hits_observed",
        "far_hits_observed",
        "accounting_identity_holds",
    ):
        guards.append(
            Guard(f"acceptance.{name}",
                  _boolean(data, f"acceptance.{name}", source))
        )
    return metrics, guards


def _extract_matrix(data, source: str):
    metrics, guards = [], []
    for prefix, point in _points(data, "runs", source, ("index", "policy")):
        metrics.append(
            Metric(f"{prefix}.hit_rate", _number(point, "hit_rate", source))
        )
        metrics.append(
            Metric(f"{prefix}.disk_reads",
                   _number(point, "disk_reads", source), "lower")
        )
        metrics.append(
            Metric(f"{prefix}.seconds",
                   _number(point, "seconds", source), "lower", timing=True)
        )
        guards.append(_accounting_guard(prefix, point, source))
    replay = data.get("replay")
    if replay is not None:
        if not isinstance(replay, Mapping) or not replay:
            raise BenchCheckError(
                f"{source}: 'replay' should be a non-empty policy->metrics "
                "object"
            )
        for policy in sorted(replay):
            metrics.append(
                Metric(f"replay.{policy}.hit_rate",
                       _number(data, f"replay.{policy}.hit_rate", source))
            )
            guards.append(
                _accounting_guard(f"replay.{policy}", replay[policy], source)
            )
    for name in (
        "at_least_2_indexes",
        "at_least_4_policies",
        "at_least_3_workloads",
        "accounting_identity_holds",
        "indexes_agree_with_rstar",
    ):
        guards.append(
            Guard(f"acceptance.{name}",
                  _boolean(data, f"acceptance.{name}", source))
        )
    return metrics, guards


#: filename → extractor.  The ``benchmark`` field inside the JSON is the
#: fallback for reports checked under a non-canonical name.
EXTRACTORS: "dict[str, Callable]" = {
    "BENCH_tuning.json": _extract_tuning,
    "BENCH_ablation.json": _extract_ablation,
    "BENCH_cluster.json": _extract_cluster,
    "BENCH_matrix.json": _extract_matrix,
}

_BY_BENCHMARK_FIELD: "dict[str, Callable]" = {
    "tuning": _extract_tuning,
    "ablation": _extract_ablation,
    "cluster": _extract_cluster,
    "matrix": _extract_matrix,
}


def load_report(path: str) -> dict:
    """Parse one report; unreadable or non-object JSON is a named error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise BenchCheckError(f"{path}: cannot read report ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise BenchCheckError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise BenchCheckError(f"{path}: report root should be a JSON object")
    return data


def extract_report(name: str, data: Mapping):
    """Metrics + guards of one report, or ``None`` if no schema is known."""
    extractor = EXTRACTORS.get(name)
    if extractor is None:
        benchmark = data.get("benchmark")
        extractor = _BY_BENCHMARK_FIELD.get(benchmark)
    if extractor is None:
        return None
    metrics, guards = extractor(data, name)
    seen: set[str] = set()
    for metric in metrics:
        if metric.key in seen:
            raise BenchCheckError(
                f"{name}: duplicate metric key '{metric.key}' — points are "
                "not uniquely identified"
            )
        seen.add(metric.key)
    return metrics, guards


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """One baseline/candidate metric pair and its verdict."""

    file: str
    key: str
    baseline: float
    candidate: float
    direction: str
    rel: "float | None"  # signed relative change, positive = improvement
    regressed: bool

    def describe(self, threshold: float) -> str:
        rel = "n/a" if self.rel is None else f"{self.rel:+.1%}"
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.file}: {self.key}: {self.baseline:g} -> "
            f"{self.candidate:g} ({rel}, {self.direction} is better, "
            f"tolerance {threshold:.0%}) {verdict}"
        )


def _signed_relative(metric: Metric, candidate: float) -> "float | None":
    """Relative change, sign-normalised so positive means *improved*."""
    baseline = metric.value
    if baseline == 0:
        if candidate == 0:
            return 0.0
        worse = candidate > 0 if metric.direction == "lower" else candidate < 0
        return -math.inf if worse else math.inf
    rel = (candidate - baseline) / abs(baseline)
    return -rel if metric.direction == "lower" else rel


def compare_metrics(
    file: str,
    baseline: Sequence[Metric],
    candidate: Sequence[Metric],
    threshold: float = DEFAULT_THRESHOLD,
    include_timing: bool = False,
) -> "tuple[list[Delta], int]":
    """All deltas for one file pair, plus how many timing metrics were skipped.

    Every baseline metric must exist in the candidate — a metric that
    disappeared (renamed, dropped) is schema drift and raises, it does
    not silently pass.
    """
    candidate_by_key = {metric.key: metric for metric in candidate}
    deltas: list[Delta] = []
    skipped = 0
    for metric in baseline:
        if metric.key not in candidate_by_key:
            raise BenchCheckError(
                f"{file}: candidate report lacks metric '{metric.key}' that "
                "the committed baseline carries — renamed or dropped? The "
                "gate compares like with like; regenerate both sides"
            )
        if metric.timing and not include_timing:
            skipped += 1
            continue
        value = candidate_by_key[metric.key].value
        rel = _signed_relative(metric, value)
        regressed = rel is not None and rel < -threshold
        deltas.append(
            Delta(
                file=file,
                key=metric.key,
                baseline=metric.value,
                candidate=value,
                direction=metric.direction,
                rel=rel,
                regressed=regressed,
            )
        )
    return deltas, skipped


# ----------------------------------------------------------------------
# Directory-level gate
# ----------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one gate run (validate-only or baseline-vs-candidate)."""

    mode: str  # "validate" or "compare"
    threshold: float
    files: list[str] = field(default_factory=list)
    metrics_checked: int = 0
    guards_checked: int = 0
    skipped_timing: int = 0
    deltas: list[Delta] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"bench check ({self.mode}): {len(self.files)} report(s), "
            f"{self.metrics_checked} metric(s), {self.guards_checked} "
            f"guard(s), tolerance {self.threshold:.0%}"
            + (
                f", {self.skipped_timing} timing metric(s) skipped"
                if self.skipped_timing
                else ""
            )
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _discover(directory: str) -> list[str]:
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    if not paths:
        raise BenchCheckError(
            f"no BENCH_*.json reports found in '{directory}' — nothing to gate"
        )
    return paths


def check_directory(
    bench_dir: str = ".",
    candidate_dir: "str | None" = None,
    threshold: float = DEFAULT_THRESHOLD,
    include_timing: bool = False,
) -> CheckResult:
    """Run the gate over every committed ``BENCH_*.json`` in ``bench_dir``.

    Without a candidate directory this validates the committed reports
    (parse + schema + their own acceptance guards + one common
    ``meta.git_rev``).  With one, each
    committed report is additionally compared metric-by-metric against
    the same-named candidate report.
    """
    result = CheckResult(
        mode="compare" if candidate_dir else "validate",
        threshold=threshold,
    )
    revisions: dict[str, str] = {}
    for path in _discover(bench_dir):
        name = os.path.basename(path)
        result.files.append(name)
        data = load_report(path)
        meta = data.get("meta")
        if isinstance(meta, Mapping) and "git_rev" in meta:
            revisions[name] = str(meta["git_rev"])
        extracted = extract_report(name, data)
        if extracted is None:
            result.notes.append(
                f"{name}: no metric schema registered; JSON validity only"
            )
            continue
        metrics, guards = extracted
        result.metrics_checked += len(metrics)
        result.guards_checked += len(guards)
        for guard in guards:
            if not guard.ok:
                result.failures.append(
                    f"{name}: committed report violates its own acceptance "
                    f"guard '{guard.key}'"
                )
        if candidate_dir is None:
            continue
        candidate_path = os.path.join(candidate_dir, name)
        if not os.path.exists(candidate_path):
            result.failures.append(
                f"{name}: candidate directory '{candidate_dir}' has no such "
                "report — generate it with the matching bench command"
            )
            continue
        candidate = extract_report(name, load_report(candidate_path))
        if candidate is None:  # same name ⇒ same extractor; defensive only
            continue
        cand_metrics, cand_guards = candidate
        for guard in cand_guards:
            if not guard.ok:
                result.failures.append(
                    f"{name}: candidate report violates acceptance guard "
                    f"'{guard.key}'"
                )
        deltas, skipped = compare_metrics(
            name, metrics, cand_metrics, threshold, include_timing
        )
        result.deltas.extend(deltas)
        result.skipped_timing += skipped
        for delta in deltas:
            if delta.regressed:
                result.failures.append(delta.describe(threshold))
    if len(set(revisions.values())) > 1:
        result.failures.append(
            "committed reports disagree on meta.git_rev ("
            + ", ".join(f"{name} {rev[:7]}" for name, rev in revisions.items())
            + ") — regenerate them in one working tree"
        )
    return result
