"""``bench tuning`` — does the self-tuner earn its keep?

The benchmark drives the phase-shifting workload
(:func:`repro.workloads.phased.phased_workload`) through:

* one **static** buffer per panel policy (LRU, LRU-2, ASB) — the experts
  the adaptive system is judged against;
* one **observe-only** tuned buffer (ghosts attached, adaptation
  disabled) — isolates the ghost-cache wall-clock overhead, since the
  live work is identical to the static baseline;
* one **adaptive** buffer (full controller, winner-take-all select
  mode) — scored per phase;
* one **ensemble** buffer (multiplicative-weights expert mixture over
  LRU, LRU-2, ASB, AWRP and EEvA) — the strongest claim, scored against
  *every* static expert, plus its own frozen-mixture overhead pair.

Scoring uses hit ratios per labelled phase (the buffer runs continuously
across phase seams — adapting to them is the whole point, so there is no
cleared-buffer protocol here).  The acceptance block answers the
questions the roadmap poses:

* is the adaptive buffer within 5 % of the *best* static expert in every
  phase (relative, with an absolute floor for near-zero phases)?
* does it beat the *worst* static expert overall?  (The robustness
  claim: adaptivity buys freedom from picking the wrong policy.)
* does the **ensemble** beat *every* static expert overall?  (The
  no-regret claim: the mixture is better than the best fixed choice on
  a shifting workload, not merely competitive with it.)
* is the ghost overhead at N=3 candidates at most 10 % wall clock — and
  the ensemble's ghost+mixture overhead likewise at most 10 %?
* did at least one adaptation actually fire?

The ensemble overhead pair freezes the mixture (``eta=0``: the
controller observes and updates nothing) so both sides do identical
live eviction work and the difference isolates the ghost feeding plus
controller bookkeeping.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.api import BufferSystem
from repro.datasets.synthetic import us_mainland_like
from repro.experiments.benchmeta import run_metadata
from repro.experiments.harness import build_database, buffer_capacity
from repro.storage import DelayedDisk
from repro.tuning import DEFAULT_EXPERTS, TuningConfig, TuningSpec, default_candidates
from repro.workloads.phased import PhasedWorkload, phased_workload

#: The static experts every adaptive run is judged against.
STATIC_PANEL = ("LRU", "LRU-2", "ASB")

#: The ensemble's expert panel (the registry's default panel).
ENSEMBLE_EXPERTS = DEFAULT_EXPERTS


#: Absolute hit-ratio slack added to the 5 % relative bound, so phases
#: where everyone misses (the scan) cannot fail on noise.
ABSOLUTE_SLACK = 0.01


@dataclass(slots=True)
class PhaseScore:
    """One policy's outcome over one labelled phase."""

    phase: str
    requests: int
    hits: int
    misses: int

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
        }


@dataclass(slots=True)
class PolicyRun:
    """One buffer's continuous run over the whole phased stream."""

    label: str
    phases: list[PhaseScore] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def requests(self) -> int:
        return sum(score.requests for score in self.phases)

    @property
    def hits(self) -> int:
        return sum(score.hits for score in self.phases)

    @property
    def overall_hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def phase_ratio(self, phase: str) -> float:
        for score in self.phases:
            if score.phase == phase:
                return score.hit_ratio
        raise KeyError(phase)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "seconds": round(self.seconds, 4),
            "overall_hit_ratio": round(self.overall_hit_ratio, 4),
            "phases": [score.to_dict() for score in self.phases],
        }


@dataclass(slots=True)
class TuningBenchReport:
    """The full ``bench tuning`` report."""

    objects: int
    capacity: int
    queries_per_phase: int
    epoch_length: int
    seed: int
    start_policy: str
    read_latency_us: float = 0.0
    sample: float = 1.0
    eta: float = 10.0
    #: The ensemble's own epoch/sampling knobs — the mixture profits
    #: from faster updates and better rate estimates than the
    #: winner-take-all selector needs.
    ensemble_epoch_length: int = 60
    ensemble_sample: float = 0.2
    static: list[PolicyRun] = field(default_factory=list)
    shadow: PolicyRun | None = None
    adaptive: PolicyRun | None = None
    tuner: dict = field(default_factory=dict)
    ensemble: PolicyRun | None = None
    ensemble_tuner: dict = field(default_factory=dict)
    #: Min-of-N wall clocks for the overhead ratio (single runs are too
    #: noisy at sub-second lengths to judge a 10 % bound).
    overhead_reps: int = 1
    base_seconds: float = 0.0
    shadow_seconds: float = 0.0
    #: Frozen-mixture pair: the same ensemble with and without the
    #: controller attached (``eta=0`` — no weight ever changes).
    ensemble_base_seconds: float = 0.0
    ensemble_shadow_seconds: float = 0.0

    # -- derived judgements --------------------------------------------

    def phase_names(self) -> list[str]:
        return [score.phase for score in self.static[0].phases]

    def best_static(self, phase: str) -> float:
        return max(run.phase_ratio(phase) for run in self.static)

    def worst_static_overall(self) -> float:
        return min(run.overall_hit_ratio for run in self.static)

    def best_static_overall(self) -> float:
        return max(run.overall_hit_ratio for run in self.static)

    def ghost_overhead(self) -> float:
        """Relative wall-clock cost of running the ghosts (shadow vs base).

        The shadow run does the identical live work as the static run of
        the start policy, plus the ghost feeding — the difference is the
        ghost overhead.  Both sides are the min over ``overhead_reps``
        repeated runs, the standard defence against scheduler noise.
        """
        if self.base_seconds <= 0.0:
            return 0.0
        return self.shadow_seconds / self.base_seconds - 1.0

    def ensemble_overhead(self) -> float:
        """Relative wall clock of the ensemble's controller machinery.

        Both sides run the identical weighted-vote eviction (frozen
        mixture); the shadow side also feeds one ghost per expert and
        pays the controller tap, so the ratio isolates what adapting
        *costs*, separate from what the mixture policy itself costs.
        """
        if self.ensemble_base_seconds <= 0.0:
            return 0.0
        return self.ensemble_shadow_seconds / self.ensemble_base_seconds - 1.0

    def acceptance(self) -> dict:
        adaptive = self.adaptive
        assert adaptive is not None
        per_phase = {}
        for phase in self.phase_names():
            best = self.best_static(phase)
            got = adaptive.phase_ratio(phase)
            per_phase[phase] = {
                "best_static": round(best, 4),
                "adaptive": round(got, 4),
                "within_5pct": bool(
                    best - got <= max(0.05 * best, ABSOLUTE_SLACK)
                ),
            }
        overhead = self.ghost_overhead()
        adaptations = int(self.tuner.get("retunes", 0)) + int(
            self.tuner.get("switches", 0)
        )
        verdict = {
            "per_phase": per_phase,
            "within_5pct_of_best_each_phase": all(
                entry["within_5pct"] for entry in per_phase.values()
            ),
            "worst_static_overall": round(self.worst_static_overall(), 4),
            "adaptive_overall": round(adaptive.overall_hit_ratio, 4),
            "beats_worst_static_overall": bool(
                adaptive.overall_hit_ratio >= self.worst_static_overall()
            ),
            "ghost_overhead": round(overhead, 4),
            "ghost_overhead_leq_10pct": bool(overhead <= 0.10),
            "adaptations": adaptations,
            "adapted_at_least_once": bool(adaptations >= 1),
        }
        if self.ensemble is not None:
            ensemble_overhead = self.ensemble_overhead()
            best = self.best_static_overall()
            verdict.update(
                {
                    "best_static_overall": round(best, 4),
                    "ensemble_overall": round(
                        self.ensemble.overall_hit_ratio, 4
                    ),
                    "beats_every_static_overall": bool(
                        self.ensemble.overall_hit_ratio > best
                    ),
                    "ensemble_overhead": round(ensemble_overhead, 4),
                    "ensemble_overhead_leq_10pct": bool(
                        ensemble_overhead <= 0.10
                    ),
                    "ensemble_weight_updates": int(
                        self.ensemble_tuner.get("weight_updates", 0)
                    ),
                }
            )
        return verdict

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "benchmark": "tuning",
            "meta": run_metadata(self.seed),
            "objects": self.objects,
            "capacity": self.capacity,
            "queries_per_phase": self.queries_per_phase,
            "epoch_length": self.epoch_length,
            "start_policy": self.start_policy,
            "read_latency_us": self.read_latency_us,
            "sample": self.sample,
            "eta": self.eta,
            "ensemble_epoch_length": self.ensemble_epoch_length,
            "ensemble_sample": self.ensemble_sample,
            "overhead_reps": self.overhead_reps,
            "base_seconds": round(self.base_seconds, 4),
            "shadow_seconds": round(self.shadow_seconds, 4),
            "ensemble_base_seconds": round(self.ensemble_base_seconds, 4),
            "ensemble_shadow_seconds": round(self.ensemble_shadow_seconds, 4),
            "static": [run.to_dict() for run in self.static],
            "shadow": self.shadow.to_dict() if self.shadow else None,
            "adaptive": self.adaptive.to_dict() if self.adaptive else None,
            "tuner": dict(self.tuner),
            "ensemble": self.ensemble.to_dict() if self.ensemble else None,
            "ensemble_tuner": dict(self.ensemble_tuner),
            "acceptance": self.acceptance(),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def to_text(self) -> str:
        runs = list(self.static)
        if self.adaptive is not None:
            runs.append(self.adaptive)
        if self.ensemble is not None:
            runs.append(self.ensemble)
        lines = [
            f"tuning bench — {self.objects} objects, {self.capacity} frames, "
            f"{self.queries_per_phase} queries/phase, epoch "
            f"{self.epoch_length}, start {self.start_policy}, "
            f"{self.read_latency_us:.0f}µs reads, sample {self.sample:g}",
            "",
            "hit ratio by phase:",
            f"{'policy':>14} "
            + " ".join(f"{phase:>8}" for phase in self.phase_names())
            + f" {'overall':>8} {'wall s':>7}",
        ]
        for run in runs:
            lines.append(
                f"{run.label:>14} "
                + " ".join(
                    f"{score.hit_ratio:>8.1%}" for score in run.phases
                )
                + f" {run.overall_hit_ratio:>8.1%} {run.seconds:>7.3f}"
            )
        verdict = self.acceptance()
        lines.append("")
        lines.append(
            f"adaptations: {verdict['adaptations']} "
            f"(retunes {self.tuner.get('retunes', 0)}, "
            f"switches {self.tuner.get('switches', 0)}, "
            f"epochs {self.tuner.get('epochs', 0)}); "
            f"live policy ended as {self.tuner.get('live', '?')}"
        )
        lines.append(
            f"ghost overhead (observe-only vs static): "
            f"{verdict['ghost_overhead']:+.1%}"
        )
        if self.ensemble is not None:
            weights = self.ensemble_tuner.get("weights", {})
            mixture = ", ".join(
                f"{name}={weight:.2f}"
                for name, weight in sorted(
                    weights.items(), key=lambda item: -item[1]
                )
            )
            lines.append(
                f"ensemble (eta {self.eta:g}): "
                f"{verdict['ensemble_weight_updates']} weight updates; "
                f"final mixture {mixture or 'n/a'}"
            )
            lines.append(
                f"ensemble overhead (frozen mixture, tuned vs untuned): "
                f"{verdict['ensemble_overhead']:+.1%}"
            )
        lines.append(
            "acceptance: "
            f"within-5%-each-phase={verdict['within_5pct_of_best_each_phase']} "
            f"beats-worst-overall={verdict['beats_worst_static_overall']} "
            f"overhead<=10%={verdict['ghost_overhead_leq_10pct']} "
            f"adapted={verdict['adapted_at_least_once']}"
        )
        if self.ensemble is not None:
            lines.append(
                "ensemble acceptance: "
                f"beats-every-static-overall="
                f"{verdict['beats_every_static_overall']} "
                f"(ensemble {verdict['ensemble_overall']:.1%} vs best "
                f"static {verdict['best_static_overall']:.1%}) "
                f"overhead<=10%={verdict['ensemble_overhead_leq_10pct']}"
            )
        return "\n".join(lines)


def drive_phased(system: BufferSystem, tree, workload: PhasedWorkload, label: str) -> PolicyRun:
    """Run the whole phased stream, scoring each labelled span."""
    run = PolicyRun(label=label)
    prev_requests = prev_hits = prev_misses = 0
    started = time.perf_counter()
    for span in workload.spans:
        for query in workload.queries[span.start:span.end]:
            with system.buffer.query_scope():
                query.run(tree, system.buffer)
        stats = system.buffer.stats
        run.phases.append(
            PhaseScore(
                phase=span.name,
                requests=stats.requests - prev_requests,
                hits=stats.hits - prev_hits,
                misses=stats.misses - prev_misses,
            )
        )
        prev_requests = stats.requests
        prev_hits = stats.hits
        prev_misses = stats.misses
    run.seconds = time.perf_counter() - started
    return run


def run_tuning_bench(
    objects: int = 20_000,
    queries_per_phase: int = 400,
    buffer_fraction: float = 0.05,
    seed: int = 7,
    epoch_length: int = 100,
    start_policy: str = "LRU",
    static_panel: tuple[str, ...] = STATIC_PANEL,
    read_latency_us: float = 100.0,
    sample: float = 0.15,
    overhead_reps: int = 5,
    eta: float = 16.0,
    ensemble_experts: tuple[str, ...] = ENSEMBLE_EXPERTS,
    ensemble_epoch_length: int = 60,
    ensemble_sample: float = 0.2,
) -> TuningBenchReport:
    """Build the database, run static / shadow / adaptive / ensemble, judge."""
    database = build_database(us_mainland_like(n_objects=objects, seed=seed))
    tree = database.tree
    capacity = buffer_capacity(database, buffer_fraction)
    # An SSD-class read latency, spun rather than slept (sleep overshoots
    # at ~100 µs): against sub-microsecond in-memory reads any per-access
    # CPU cost looks enormous, so the overhead ratios would mean nothing.
    disk = DelayedDisk(tree.pagefile.disk, read_latency_us * 1e-6, spin=True)
    workload = phased_workload(
        database.dataset.space, queries_per_phase=queries_per_phase, seed=seed
    )
    report = TuningBenchReport(
        objects=objects,
        capacity=capacity,
        queries_per_phase=queries_per_phase,
        epoch_length=epoch_length,
        seed=seed,
        start_policy=start_policy,
        read_latency_us=read_latency_us,
        sample=sample,
        eta=eta,
        ensemble_epoch_length=ensemble_epoch_length,
        ensemble_sample=ensemble_sample,
        overhead_reps=max(1, overhead_reps),
    )
    for name in static_panel:
        system = BufferSystem.build(policy=name, capacity=capacity, disk=disk)
        report.static.append(drive_phased(system, tree, workload, name))

    candidates = default_candidates(start_policy)
    observe_only = TuningConfig(
        candidates=candidates,
        epoch_length=epoch_length,
        allow_retune=False,
        allow_switch=False,
        sample=sample,
    )
    base_times: list[float] = []
    shadow_times: list[float] = []
    for _ in range(report.overhead_reps):
        system = BufferSystem.build(
            policy=start_policy, capacity=capacity, disk=disk
        )
        base_times.append(drive_phased(system, tree, workload, "base").seconds)
        system = BufferSystem.build(
            policy=start_policy, capacity=capacity, disk=disk, tuning=observe_only
        )
        report.shadow = drive_phased(system, tree, workload, "shadow")
        shadow_times.append(report.shadow.seconds)
    report.base_seconds = min(base_times)
    report.shadow_seconds = min(shadow_times)

    adaptive_config = TuningConfig(
        candidates=candidates,
        epoch_length=epoch_length,
        hysteresis=0.01,
        patience=1,
        cooldown=1,
        sample=sample,
    )
    system = BufferSystem.build(
        policy=start_policy, capacity=capacity, disk=disk, tuning=adaptive_config
    )
    report.adaptive = drive_phased(system, tree, workload, "adaptive")
    report.tuner = system.tuner.snapshot()

    # -- the expert ensemble -------------------------------------------
    ensemble_spec = TuningSpec(
        mode="ensemble",
        experts=ensemble_experts,
        epoch_length=ensemble_epoch_length,
        sample=ensemble_sample,
        eta=eta,
    )
    system = BufferSystem.build(
        policy="ENSEMBLE", capacity=capacity, disk=disk, tuning=ensemble_spec
    )
    report.ensemble = drive_phased(system, tree, workload, "ensemble")
    report.ensemble_tuner = system.tuner.snapshot()

    # Frozen-mixture overhead pair: eta=0 keeps the weights constant, so
    # the tuned and untuned ensembles evict identically and the timing
    # difference is pure ghost + controller cost.
    frozen_spec = TuningSpec(
        mode="ensemble",
        experts=ensemble_experts,
        epoch_length=ensemble_epoch_length,
        sample=ensemble_sample,
        eta=0.0,
    )
    ensemble_base_times: list[float] = []
    ensemble_shadow_times: list[float] = []
    for _ in range(report.overhead_reps):
        system = BufferSystem.build(
            policy="ENSEMBLE",
            policy_kwargs={"experts": ensemble_experts},
            capacity=capacity,
            disk=disk,
        )
        ensemble_base_times.append(
            drive_phased(system, tree, workload, "ensemble-base").seconds
        )
        system = BufferSystem.build(
            policy="ENSEMBLE", capacity=capacity, disk=disk, tuning=frozen_spec
        )
        ensemble_shadow_times.append(
            drive_phased(system, tree, workload, "ensemble-frozen").seconds
        )
    report.ensemble_base_seconds = min(ensemble_base_times)
    report.ensemble_shadow_seconds = min(ensemble_shadow_times)
    return report
