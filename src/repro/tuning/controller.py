"""The epoch-based self-tuning controller.

The paper's ASB tunes *one* knob inside *one* policy.  This module lifts
the same feedback idea to the system level, following the expert-based
framing of EEvA (Demin et al., 2024): run a small panel of cheap
candidate configurations as :class:`~repro.tuning.ghost.GhostCache`
shadows of the live reference stream, score everyone on windowed
hit-rate, and adapt the *live* buffer when a candidate has demonstrably
led for long enough.

Decision rule (per epoch of ``epoch_length`` accesses):

1. compute the live hit-rate and each ghost's hit-rate over the epoch;
2. the epoch's *leader* is the best ghost; it scores a point only if it
   beats the live rate by at least ``hysteresis`` (absolute hit-rate
   margin) — any other outcome resets the streak;
3. the same candidate leading ``patience`` consecutive epochs triggers an
   adaptation, followed by ``cooldown`` epochs of observation-only.

Adaptations come in two safeties-first flavours:

* **retune** — the candidate is a parameter variant of the live policy:
  :meth:`~repro.buffer.policies.base.ReplacementPolicy.retune` changes
  the knob in place; resident bookkeeping survives untouched;
* **switch** — the candidate is a different policy: the buffer performs
  a live hand-off (:meth:`BufferManager.switch_policy`), migrating
  resident-frame bookkeeping to a fresh policy instance without
  evicting, copying or unpinning a single page.

With a sharded buffer the tap fires under the *calling* shard's lock, so
the controller never acquires another shard's lock (no lock-order
cycles): an adaptation bumps a config version, the deciding shard
applies it immediately, and every other shard converges on its next
tapped access.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.buffer.policies import make_policy, policy_param_space
from repro.obs.events import BufferEvent
from repro.tuning.ghost import GhostCache, PageMeta

if TYPE_CHECKING:
    from repro.buffer.frames import Frame
    from repro.buffer.manager import BufferManager
    from repro.obs.events import EventSink


@dataclass(frozen=True)
class Candidate:
    """One expert of the panel: a buffer configuration worth shadowing.

    ``retune`` non-empty marks a *parameter variant* of the live policy —
    adopted via ``Policy.retune`` in place; otherwise adoption is a live
    policy hand-off to ``make_policy(policy, **kwargs)``.
    """

    name: str
    policy: str
    kwargs: Mapping = field(default_factory=dict)
    retune: Mapping = field(default_factory=dict)

    def build_policy(self):
        return make_policy(self.policy, **dict(self.kwargs))


@dataclass(frozen=True)
class TuningSpec:
    """The tuner's configuration, for ``BufferSystem.build(tuning=...)``.

    ``candidates=None`` derives a default panel from the live policy via
    :func:`default_candidates`.  ``hysteresis`` is an absolute hit-rate
    margin (0.02 = the ghost must win by two hit-percentage points), the
    regret guard that keeps noise from flapping the buffer.  A spec is
    frozen and buffer-independent: one spec can build many systems.
    """

    candidates: Sequence[Candidate] | None = None
    epoch_length: int = 2000
    hysteresis: float = 0.02
    patience: int = 2
    cooldown: int = 2
    #: SHARDS-style spatial sampling (Waldspurger et al., FAST'15): ghosts
    #: see only pages whose id-hash falls below ``sample`` of the hash
    #: space, and each ghost's capacity is scaled by the same factor, so
    #: the sampled simulation still estimates the full-stream hit-rate.
    #: 1.0 (default) feeds every access — exact, bit-identical shadowing;
    #: smaller values trade fidelity for proportionally less overhead.
    sample: float = 1.0

    def __post_init__(self) -> None:
        if self.epoch_length < 1:
            raise ValueError("epoch_length must be at least 1")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if not 0.0 < self.sample <= 1.0:
            raise ValueError("sample must be in (0, 1]")


def default_candidates(
    policy_name: str, policy_kwargs: Mapping | None = None, limit: int = 3
) -> tuple[Candidate, ...]:
    """A default expert panel for a live policy.

    Parameter variants first (cheap to adopt: a retune, not a hand-off):
    every ``retunable`` numeric parameter of the live policy contributes
    its range midpoint-ish alternates.  Then a small cross-policy panel —
    LRU (the robust recency baseline), LRU-2 (the history expert) and ASB
    (the paper's spatial self-tuner) — minus whichever the live policy
    already is.  Trimmed to ``limit`` experts so ghost overhead stays
    bounded.
    """
    policy_kwargs = dict(policy_kwargs or {})
    candidates: list[Candidate] = []
    try:
        space = policy_param_space(policy_name)
    except ValueError:
        space = {}
    for pname, spec in sorted(space.items()):
        if not spec.retunable or spec.kind not in ("int", "float"):
            continue
        current = policy_kwargs.get(pname, spec.default)
        if current is None or spec.lo is None or spec.hi is None:
            continue
        for factor in (2.0, 0.5):
            value = current * factor
            value = max(spec.lo, min(spec.hi, value))
            if spec.kind == "int":
                value = int(round(value))
            if value == current:
                continue
            variant = {**policy_kwargs, pname: value}
            short = f"{value:.2f}" if spec.kind == "float" else str(value)
            candidates.append(
                Candidate(
                    name=f"{policy_name} {pname}={short}",
                    policy=policy_name,
                    kwargs=variant,
                    retune={pname: value},
                )
            )
    live_key = policy_name.strip().upper()
    for expert in ("LRU", "LRU-2", "ASB"):
        if expert == live_key:
            continue
        candidates.append(Candidate(name=expert, policy=expert))
    return tuple(candidates[:limit])


class TuningController:
    """Observes the live reference stream, steers the buffer.

    Implements the buffer managers' tap protocol
    (``on_access(manager, frame, hit)``); attach with
    :meth:`attach_buffer`, which wires the tap into a sequential manager
    or into every shard of a concurrent one.  Thread-safe: the whole tap
    body runs under one internal lock (the tap is called under at most
    one shard lock, never more).
    """

    def __init__(
        self,
        config: TuningSpec | None = None,
        observer: "EventSink | None" = None,
    ) -> None:
        self.config = config or TuningSpec()
        self.observer = observer
        self._lock = threading.Lock()
        self._ghosts: list[GhostCache] = []
        self._criteria: tuple[str, ...] = ()
        self._managers: list["BufferManager"] = []
        self.live_name = ""
        self._live_policy_name = ""      # registry name of the live policy
        self._live_kwargs: dict = {}
        # Epoch accounting.
        self._accesses = 0               # controller-global access count
        self._epoch_accesses = 0
        self._epoch_live_hits = 0
        self._ghost_marks: list[tuple[int, int]] = []  # (requests, hits) at epoch start
        self._leader_name: str | None = None
        self._leader_streak = 0
        self._cooldown_left = 0
        # Adaptation log; version propagation for sharded buffers.
        self._actions: list[tuple] = []   # ("retune", kwargs) | ("switch", Candidate)
        self.epochs = 0
        self.retunes = 0
        self.switches = 0
        self.last_epoch: dict = {}
        self._ghost_capacity = 0
        self._sample_threshold: int | None = None  # None = feed everything

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_buffer(
        self,
        buffer,
        policy_name: str,
        policy_kwargs: Mapping | None = None,
    ) -> None:
        """Wire the tap into a (sequential or sharded) buffer manager."""
        managers = getattr(buffer, "shard_managers", None)
        self._managers = list(managers()) if managers is not None else [buffer]
        self._live_policy_name = policy_name
        self._live_kwargs = dict(policy_kwargs or {})
        live_policy = self._managers[0].policy
        self.live_name = live_policy.name
        candidates = self.config.candidates
        if candidates is None:
            candidates = default_candidates(policy_name, self._live_kwargs)
        candidates = list(candidates)
        # Shadow the live configuration too (when it is registry-buildable):
        # a control ghost the controller can always switch *back* to after
        # the workload shifts again.
        if not any(candidate.name == self.live_name for candidate in candidates):
            try:
                live = Candidate(
                    name=self.live_name,
                    policy=policy_name,
                    kwargs=dict(self._live_kwargs),
                )
                live.build_policy()
            except (ValueError, TypeError):
                pass
            else:
                candidates.insert(0, live)
        sample = self.config.sample
        if sample < 1.0:
            # Map ids into the 32-bit hash space (Fibonacci hashing) and
            # keep the lowest ``sample`` slice of it.
            self._sample_threshold = int(sample * 0x100000000)
        self._ghost_capacity = max(1, round(buffer.capacity * sample))
        self._ghosts = [
            GhostCache(
                candidate.build_policy(), self._ghost_capacity, name=candidate.name
            )
            for candidate in candidates
        ]
        self._candidates = tuple(candidates)
        criteria = set()
        for ghost in self._ghosts:
            criterion = getattr(ghost.policy, "criterion", None)
            if criterion is not None:
                criteria.add(criterion)
        for manager in self._managers:
            criterion = getattr(manager.policy, "criterion", None)
            if criterion is not None:
                criteria.add(criterion)
        self._criteria = tuple(sorted(criteria))
        self._ghost_marks = [(0, 0) for _ in self._ghosts]
        for manager in self._managers:
            manager._tuning_version = 0  # type: ignore[attr-defined]
            manager.tuner = self

    # ------------------------------------------------------------------
    # The tap (called by BufferManager.serve_hit / complete_miss)
    # ------------------------------------------------------------------

    def on_access(self, manager: "BufferManager", frame: "Frame", hit: bool) -> None:
        with self._lock:
            if manager._tuning_version != len(self._actions):  # type: ignore[attr-defined]
                self._apply_pending(manager)
            self._accesses += 1
            self._epoch_accesses += 1
            if hit:
                self._epoch_live_hits += 1
            page_id = frame.page_id
            threshold = self._sample_threshold
            if (
                threshold is None
                or ((page_id * 2654435761) & 0xFFFFFFFF) < threshold
            ):
                # Built from the live frame on the first ghost miss, at
                # most once per access: the criteria are memoised on the
                # frame and the page version, so an edited page re-enters
                # a ghost with its current footprint.
                meta = None
                criteria = self._criteria

                def live_meta() -> PageMeta:
                    nonlocal meta
                    if meta is None:
                        meta = PageMeta.from_frame(frame, criteria)
                    return meta

                query = manager._query_id
                for ghost in self._ghosts:
                    ghost.access(page_id, query, live_meta)
            if self._epoch_accesses >= self.config.epoch_length:
                self._close_epoch(manager)

    # ------------------------------------------------------------------
    # Epochs and decisions
    # ------------------------------------------------------------------

    def _close_epoch(self, manager: "BufferManager") -> None:
        epoch_len = self._epoch_accesses
        live_rate = self._epoch_live_hits / epoch_len
        rates: list[float] = []
        for index, ghost in enumerate(self._ghosts):
            mark_requests, mark_hits = self._ghost_marks[index]
            delta_requests = ghost.stats.requests - mark_requests
            delta_hits = ghost.stats.hits - mark_hits
            rates.append(delta_hits / delta_requests if delta_requests else 0.0)
            self._ghost_marks[index] = (ghost.stats.requests, ghost.stats.hits)
        self.epochs += 1
        self._epoch_accesses = 0
        self._epoch_live_hits = 0

        leader_index = max(range(len(rates)), key=rates.__getitem__) if rates else -1
        leader = self._candidates[leader_index] if leader_index >= 0 else None
        leader_rate = rates[leader_index] if leader_index >= 0 else 0.0
        self.last_epoch = {
            "epoch": self.epochs,
            "accesses": self._accesses,
            "live": self.live_name,
            "live_hit_ratio": live_rate,
            "ghosts": {
                ghost.name: rate for ghost, rate in zip(self._ghosts, rates)
            },
        }
        observer = self.observer
        if observer is not None:
            observer.emit(
                BufferEvent(
                    kind="tune_epoch",
                    clock=self._accesses,
                    size=epoch_len,
                    value=round(live_rate, 6),
                    label=leader.name if leader else None,
                )
            )
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            self._leader_name = None
            self._leader_streak = 0
            return
        # The reference the leader must beat: the *control ghost* running
        # the live configuration, when present.  It sees the same sampled
        # stream at the same scaled capacity as every other ghost, so
        # sampling noise and warm-up cancel out of the comparison; the
        # raw live rate is the fallback when no control ghost exists.
        reference = live_rate
        for candidate, rate in zip(self._candidates, rates):
            if candidate.name == self.live_name:
                reference = rate
                break
        margin = self.config.hysteresis
        if (
            leader is None
            or leader.name == self.live_name
            or leader_rate < reference + margin
        ):
            self._leader_name = None
            self._leader_streak = 0
            return
        if leader.name == self._leader_name:
            self._leader_streak += 1
        else:
            self._leader_name = leader.name
            self._leader_streak = 1
        if self._leader_streak < self.config.patience:
            return
        self._adopt(leader, leader_rate, manager)

    def _adopt(
        self, candidate: Candidate, rate: float, manager: "BufferManager"
    ) -> None:
        """Record the adaptation and apply it to the deciding manager now."""
        is_retune = bool(candidate.retune) and candidate.policy == self._live_policy_name
        if is_retune:
            self._actions.append(("retune", dict(candidate.retune)))
            self._live_kwargs.update(candidate.retune)
            self.retunes += 1
        else:
            self._actions.append(("switch", candidate))
            self._live_policy_name = candidate.policy
            self._live_kwargs = dict(candidate.kwargs)
            self.switches += 1
        self.live_name = candidate.name
        self._leader_name = None
        self._leader_streak = 0
        self._cooldown_left = self.config.cooldown
        self._apply_pending(manager)
        observer = self.observer
        if observer is not None:
            if is_retune:
                summary = ",".join(
                    f"{key}={value}" for key, value in sorted(candidate.retune.items())
                )
                observer.emit(
                    BufferEvent(
                        kind="tune_retune",
                        clock=self._accesses,
                        value=round(rate, 6),
                        label=summary,
                    )
                )
            else:
                resident = sum(len(m.frames) for m in self._managers)
                observer.emit(
                    BufferEvent(
                        kind="tune_switch",
                        clock=self._accesses,
                        value=round(rate, 6),
                        label=candidate.name,
                        size=resident,
                    )
                )

    def _apply_pending(self, manager: "BufferManager") -> None:
        """Catch one manager up with every adaptation it has not seen.

        Runs under the controller lock while the caller holds (at most)
        this manager's shard lock — never another shard's, so shards
        converge lock-free relative to each other.
        """
        version = manager._tuning_version  # type: ignore[attr-defined]
        for action in self._actions[version:]:
            if action[0] == "retune":
                manager.policy.retune(**action[1])
            else:
                candidate: Candidate = action[1]
                manager.switch_policy(candidate.build_policy())
        manager._tuning_version = len(self._actions)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Introspection (server STATS, benches, tests)
    # ------------------------------------------------------------------

    @property
    def ghosts(self) -> list[GhostCache]:
        return self._ghosts

    def snapshot(self) -> dict:
        """Tuner state as a plain dict (reported by the page service)."""
        with self._lock:
            return {
                "live": self.live_name,
                "policy": self._live_policy_name,
                "policy_kwargs": dict(self._live_kwargs),
                "accesses": self._accesses,
                "epochs": self.epochs,
                "epoch_length": self.config.epoch_length,
                "sample": self.config.sample,
                "ghost_capacity": self._ghost_capacity,
                "retunes": self.retunes,
                "switches": self.switches,
                "cooldown_left": self._cooldown_left,
                "ghosts": {
                    ghost.name: {
                        "requests": ghost.stats.requests,
                        "hit_ratio": ghost.stats.hit_ratio,
                        "resident": len(ghost),
                    }
                    for ghost in self._ghosts
                },
                "last_epoch": dict(self.last_epoch),
            }


def candidate_variants(
    policy_name: str, values: Mapping[str, Sequence]
) -> tuple[Candidate, ...]:
    """Spell out parameter-variant candidates explicitly.

    ``candidate_variants("ASB", {"candidate_fraction": [0.1, 0.5]})``
    returns retune candidates for each value, validated against the
    registry's parameter space.
    """
    space = policy_param_space(policy_name)
    candidates: list[Candidate] = []
    for pname, options in sorted(values.items()):
        spec = space.get(pname)
        if spec is None:
            raise ValueError(
                f"policy {policy_name!r} has no parameter {pname!r}; "
                f"tunable: {sorted(space)}"
            )
        if not spec.retunable:
            raise ValueError(
                f"policy {policy_name!r} parameter {pname!r} is not retunable"
            )
        for value in options:
            spec.validate(policy_name, value)
            short = f"{value:.2f}" if isinstance(value, float) else str(value)
            candidates.append(
                Candidate(
                    name=f"{policy_name} {pname}={short}",
                    policy=policy_name,
                    kwargs={pname: value},
                    retune={pname: value},
                )
            )
    return tuple(candidates)


__all__ = [
    "Candidate",
    "TuningController",
    "TuningSpec",
    "default_candidates",
    "candidate_variants",
]
