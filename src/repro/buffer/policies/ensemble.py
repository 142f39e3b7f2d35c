"""The weighted expert-vote mixture policy backing ``repro.tuning.ensemble``.

EEvA's framing (Demin et al., 2024) generalised: instead of one policy
*or* another, run a panel of full replacement policies side by side on
the same buffer and let a weight vector decide how much each expert's
opinion counts.  On every eviction each expert nominates its victim and
casts its weight as a vote; the page with the heaviest total goes.  With
the weight mass concentrated on one expert the mixture *is* that expert;
in between it interpolates — the behaviour the multiplicative-weights
update of :class:`repro.tuning.TuningController` steers per epoch.

The experts observe every buffer event (load/hit/evict are forwarded),
so each one's internal bookkeeping stays exactly what it would be if it
ran the buffer alone; only the *decisions* are blended.  Experts must
tolerate ``on_evict`` for frames they did not nominate — the contract
every registered policy already honours for live hand-offs and clears.

The weight vector is normalised to sum to one and retunes in place
(``retune(weights=...)``), which is how the controller propagates each
epoch's mixture to every shard through its adaptation log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.buffer.frames import Frame
from repro.buffer.policies.base import ReplacementPolicy
from repro.storage.page import PageId

if TYPE_CHECKING:
    from repro.buffer.manager import BufferManager

#: The default expert panel: the robust recency baseline, the history
#: expert, the paper's spatial self-tuner, the frequency×recency ranker,
#: and the multi-signal retention scorer — five genuinely different
#: opinions about what to keep.
DEFAULT_EXPERTS = ("LRU", "LRU-2", "ASB", "AWRP", "EEVA")


class EnsemblePolicy(ReplacementPolicy):
    """Weighted plurality vote over a panel of expert policies."""

    name = "ENSEMBLE"

    def __init__(
        self,
        experts: "Sequence[str | ReplacementPolicy] | None" = None,
        weights: "Sequence[float] | None" = None,
    ) -> None:
        super().__init__()
        # Lazy import: the registry module registers this class, so the
        # construction path cannot be a module-level dependency.
        from repro.buffer.policies import make_policy

        entries = tuple(experts) if experts is not None else DEFAULT_EXPERTS
        if not entries:
            raise ValueError("an ensemble needs at least one expert")
        panel: list[ReplacementPolicy] = []
        specs: list[str] = []
        for entry in entries:
            if isinstance(entry, ReplacementPolicy):
                panel.append(entry)
                specs.append(entry.name)
            elif isinstance(entry, str):
                panel.append(make_policy(entry))
                specs.append(entry.strip().upper())
            else:
                raise TypeError(
                    "experts must be policy names or ReplacementPolicy "
                    f"instances; got {type(entry).__name__}"
                )
        self.experts: tuple[ReplacementPolicy, ...] = tuple(panel)
        self.expert_names: tuple[str, ...] = tuple(p.name for p in panel)
        #: What to hand ``make_policy`` to build a fresh copy of each
        #: expert (the registry spelling when the expert came in by name)
        #: — the controller's ghost caches are built from these.
        self.expert_specs: tuple[str, ...] = tuple(specs)
        self._weights = self._normalised(
            weights if weights is not None else [1.0] * len(panel)
        )
        # Forward hits only to experts that actually listen, mirroring
        # the no-op elision of the live fast path and the ghost caches.
        self._hit_experts = tuple(
            expert
            for expert in self.experts
            if type(expert).on_hit is not ReplacementPolicy.on_hit
        )

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------

    def _normalised(self, weights: Sequence[float]) -> tuple[float, ...]:
        values = [float(weight) for weight in weights]
        if len(values) != len(self.experts):
            raise ValueError(
                f"expected {len(self.experts)} weights "
                f"(one per expert), got {len(values)}"
            )
        if any(value < 0.0 for value in values):
            raise ValueError("weights must be non-negative")
        total = sum(values)
        if total <= 0.0:
            raise ValueError("at least one weight must be positive")
        return tuple(value / total for value in values)

    @property
    def weights(self) -> tuple[float, ...]:
        """The normalised mixture (sums to one), expert order."""
        return self._weights

    def weight_of(self, expert_name: str) -> float:
        return self._weights[self.expert_names.index(expert_name)]

    def retune(self, *, weights: "Sequence[float] | None" = None, **kwargs) -> None:
        """Adopt a new mixture in place; expert bookkeeping is untouched."""
        super().retune(**kwargs)
        if weights is not None:
            self._weights = self._normalised(weights)

    # ------------------------------------------------------------------
    # Wiring and event forwarding
    # ------------------------------------------------------------------

    def attach(self, buffer: "BufferManager") -> None:
        super().attach(buffer)
        for expert in self.experts:
            expert.attach(buffer)

    def on_load(self, frame: Frame) -> None:
        for expert in self.experts:
            expert.on_load(frame)

    def on_hit(self, frame: Frame, correlated: bool) -> None:
        for expert in self._hit_experts:
            expert.on_hit(frame, correlated)

    def on_update(self, frame: Frame) -> None:
        for expert in self.experts:
            expert.on_update(frame)

    def on_evict(self, frame: Frame) -> None:
        for expert in self.experts:
            expert.on_evict(frame)

    def reset(self) -> None:
        for expert in self.experts:
            expert.reset()

    def seed_resident(self, frames: list[Frame]) -> None:
        for expert in self.experts:
            expert.seed_resident(frames)

    # ------------------------------------------------------------------
    # The vote
    # ------------------------------------------------------------------

    def select_victim(self) -> PageId:
        votes: dict[PageId, float] = {}
        for expert, weight in zip(self.experts, self._weights):
            nominee = expert.select_victim()
            votes[nominee] = votes.get(nominee, 0.0) + weight
        # Strict comparison: on an exact tie the earliest nomination in
        # expert order wins, which is deterministic on live buffers and
        # ghost caches alike (dicts preserve insertion order).
        victim: PageId | None = None
        best = -1.0
        for nominee, total in votes.items():
            if total > best:
                victim = nominee
                best = total
        assert victim is not None  # every expert nominated someone
        return victim

    def flush_priority(self, frame: Frame) -> float:
        """Follow the dominant expert's notion of cold (first on ties)."""
        dominant = max(
            range(len(self.experts)), key=lambda index: self._weights[index]
        )
        return self.experts[dominant].flush_priority(frame)
