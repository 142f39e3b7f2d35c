"""Tests of the self-tuning subsystem (:mod:`repro.tuning`).

The load-bearing properties, pinned with hypothesis where they are
stream-shaped:

* a ghost cache fed the live reference stream is **bit-identical** to a
  real buffer running the same policy and capacity on the same stream
  (per-access hit/miss decisions, final statistics, resident set);
* the live policy hand-off (``BufferManager.switch_policy``) loses zero
  resident pages and keeps ``hits + misses == requests`` across the
  switch, wherever in the stream it happens;
* the epoch controller actually adapts: a live policy that is
  pathologically wrong for the stream (LRU under a cyclic scan) is
  switched to the candidate that wins (MRU), the adaptation propagates
  to every shard of a concurrent buffer, and the ``tune_*`` events tell
  the story.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BufferSystem
from repro.buffer.manager import BufferManager
from repro.buffer.policies import (
    POLICY_REGISTRY,
    UnknownPolicyError,
    make_policy,
    policy_names,
    policy_param_space,
)
from repro.buffer.policies.spatial import spatial_criterion
from repro.datasets.synthetic import us_mainland_like
from repro.experiments.harness import (
    build_database,
    buffer_capacity,
    run_queries,
)
from repro.geometry.rect import Rect
from repro.obs.events import TraceRecorder
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.tuning import (
    Candidate,
    GhostCache,
    PageMeta,
    TuningController,
    TuningSpec,
    candidate_variants,
    default_candidates,
)
from repro.workloads.phased import phased_workload

N_PAGES = 18

#: A trace is a sequence of (page_id, starts_new_query) pairs.
traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_PAGES - 1), st.booleans()
    ),
    min_size=1,
    max_size=150,
)

capacities = st.integers(min_value=1, max_value=7)

#: Policies the ghost-equivalence property quantifies over: the recency
#: baselines, the history expert, the paper's spatial self-tuner, and one
#: policy reading page criteria on each spatial path (pure A, static SLRU).
GHOST_POLICIES = ("LRU", "LRU-2", "ASB", "FIFO", "A", "SLRU")


def build_disk() -> SimulatedDisk:
    disk = SimulatedDisk()
    for page_id in range(N_PAGES):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        side = float(page_id % 5 + 1)
        page.entries.append(
            PageEntry(mbr=Rect(0, 0, side, side), payload=page_id)
        )
        disk.store(page)
    return disk


def page_metas(disk: SimulatedDisk, criteria: tuple[str, ...]) -> dict:
    return {
        page_id: PageMeta.from_page(disk.read(page_id), criteria)
        for page_id in range(N_PAGES)
    }


def grouped(trace):
    """Split a trace into query groups at the ``starts_new_query`` marks."""
    groups: list[list[int]] = []
    for page_id, new_query in trace:
        if new_query or not groups:
            groups.append([])
        groups[-1].append(page_id)
    return groups


class TestGhostEquivalence:
    """Ghost hit/miss decisions == a real buffer's, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(traces, capacities, st.sampled_from(GHOST_POLICIES))
    def test_ghost_matches_real_buffer(self, trace, capacity, policy_name):
        disk = build_disk()
        buffer = BufferManager(disk, capacity, make_policy(policy_name))
        ghost_policy = make_policy(policy_name)
        criterion = getattr(ghost_policy, "criterion", None)
        criteria = (criterion,) if criterion else ()
        ghost = GhostCache(ghost_policy, capacity)
        metas = page_metas(disk, criteria)

        real_decisions: list[bool] = []
        ghost_decisions: list[bool] = []
        for group in grouped(trace):
            with buffer.query_scope() as query:
                for page_id in group:
                    real_decisions.append(buffer.contains(page_id))
                    buffer.fetch(page_id)
                    ghost_decisions.append(
                        ghost.access(page_id, query, metas[page_id])
                    )
        assert ghost_decisions == real_decisions
        assert ghost.stats.requests == buffer.stats.requests
        assert ghost.stats.hits == buffer.stats.hits
        assert ghost.stats.misses == buffer.stats.misses
        assert ghost.stats.evictions == buffer.stats.evictions
        assert set(ghost.frames) == set(buffer.frames)

    def test_ghost_frames_are_metadata_only(self):
        disk = build_disk()
        ghost = GhostCache(make_policy("ASB"), 4)
        metas = page_metas(disk, ("A",))
        for step in range(30):
            ghost.access(step % N_PAGES, step, metas[step % N_PAGES])
        for frame in ghost.frames.values():
            assert frame.page.entries == []      # stub pages, no content
            assert not frame.dirty and not frame.pinned

    def test_ghost_never_touches_the_disk(self):
        disk = build_disk()
        metas = page_metas(disk, ())
        reads_before = disk.stats.reads
        ghost = GhostCache(make_policy("LRU"), 3)
        for step in range(50):
            ghost.access(step % N_PAGES, step, metas[step % N_PAGES])
        assert disk.stats.reads == reads_before

    def test_meta_factory_called_only_on_miss(self):
        disk = build_disk()
        metas = page_metas(disk, ())
        ghost = GhostCache(make_policy("LRU"), 4)
        calls = 0

        def factory():
            nonlocal calls
            calls += 1
            return metas[0]

        assert ghost.access(0, 1, factory) is False
        assert calls == 1
        assert ghost.access(0, 2, factory) is True
        assert calls == 1                        # hit path never builds

    def test_reset_forgets_everything(self):
        disk = build_disk()
        metas = page_metas(disk, ())
        ghost = GhostCache(make_policy("LRU"), 4)
        for step in range(10):
            ghost.access(step % 6, step, metas[step % 6])
        ghost.reset()
        assert len(ghost) == 0
        assert ghost.stats.requests == 0


class TestGhostMetadata:
    """The controller feeds ghosts the live frame's current metadata."""

    def test_edited_page_reenters_the_ghost_with_its_new_criterion(self):
        disk = build_disk()
        buffer = BufferManager(disk, 4, make_policy("LRU"))
        controller = TuningController(
            TuningSpec(
                candidates=(Candidate(name="A", policy="A"),),
                epoch_length=10_000,
            )
        )
        controller.attach_buffer(buffer, "LRU")
        ghost = next(g for g in controller.ghosts if g.name == "A")
        page = buffer.fetch(0)                     # A = 1 x 1
        page.entries[0] = PageEntry(mbr=Rect(0, 0, 10, 10), payload=0)
        buffer.mark_dirty(0)
        for page_id in (1, 2, 0, 3, 4):            # 4 pushes 0 out of the ghost
            buffer.fetch(page_id)
        assert 0 not in ghost.frames and 0 in buffer.frames
        buffer.fetch(0)                            # re-enters the ghost
        live = spatial_criterion(buffer.frames.get(0), "A")
        assert live == 100.0
        assert ghost.frames.get(0).crit_cache == {"A": live}

    def test_at_most_one_meta_per_tapped_access(self, monkeypatch):
        calls = 0
        original = PageMeta.from_frame.__func__

        def counting(cls, frame, criteria):
            nonlocal calls
            calls += 1
            return original(cls, frame, criteria)

        monkeypatch.setattr(PageMeta, "from_frame", classmethod(counting))
        disk = build_disk()
        buffer = BufferManager(disk, 8, make_policy("LRU"))
        controller = TuningController(
            TuningSpec(
                candidates=tuple(
                    Candidate(name=name, policy=name)
                    for name in ("A", "MRU", "FIFO")
                ),
                epoch_length=10_000,
            )
        )
        controller.attach_buffer(buffer, "LRU")
        assert len(controller.ghosts) == 4
        for page_id in range(8):                   # every ghost misses
            buffer.fetch(page_id)
        assert calls == 8
        for page_id in range(8):                   # every ghost hits
            buffer.fetch(page_id)
        assert calls == 8


class TestPolicyHandoff:
    """switch_policy: a live hand-off that loses nothing."""

    @settings(max_examples=40, deadline=None)
    @given(
        traces,
        capacities,
        st.integers(min_value=0, max_value=149),
        st.sampled_from(("LRU", "LRU-2", "ASB", "MRU", "FIFO")),
    )
    def test_handoff_preserves_residency_and_accounting(
        self, trace, capacity, switch_at, target
    ):
        disk = build_disk()
        buffer = BufferManager(disk, capacity, make_policy("LRU"))
        for step, (page_id, _) in enumerate(trace):
            if step == switch_at:
                resident_before = set(buffer.frames)
                evictions_before = buffer.stats.evictions
                old = buffer.switch_policy(make_policy(target))
                assert old.name == "LRU"
                # Zero resident pages lost, none evicted, none copied.
                assert set(buffer.frames) == resident_before
                assert buffer.stats.evictions == evictions_before
            buffer.fetch(page_id)
        stats = buffer.stats
        assert stats.hits + stats.misses == stats.requests
        assert len(buffer.frames) <= capacity

    def test_switch_seeds_the_new_policy_with_residents(self):
        disk = build_disk()
        buffer = BufferManager(disk, 4, make_policy("LRU"))
        for page_id in range(4):
            buffer.fetch(page_id)
        buffer.switch_policy(make_policy("FIFO"))
        # The incoming policy must be able to pick victims for every
        # subsequent miss: residents were seeded, not dropped.
        for page_id in range(4, 12):
            buffer.fetch(page_id)
        assert len(buffer.frames) == 4
        assert buffer.stats.hits + buffer.stats.misses == buffer.stats.requests


def cyclic_controller(
    capacity: int = 4,
    epoch_length: int = 12,
    observer=None,
    **config_kwargs,
) -> tuple[BufferManager, TuningController]:
    """A live LRU buffer under a cyclic scan, with MRU as the candidate.

    The classic adversarial stream: cycling over ``capacity + 2`` pages
    gives LRU a 0 % hit-rate while MRU retains most of the loop — the
    controller has an unambiguous, deterministic reason to switch.
    """
    disk = build_disk()
    buffer = BufferManager(disk, capacity, make_policy("LRU"))
    config = TuningSpec(
        **{
            "candidates": (Candidate(name="MRU", policy="MRU"),),
            "epoch_length": epoch_length,
            "hysteresis": 0.01,
            "patience": 1,
            "cooldown": 0,
            **config_kwargs,
        }
    )
    controller = TuningController(config, observer=observer)
    controller.attach_buffer(buffer, "LRU")
    return buffer, controller


class TestController:
    def test_switches_away_from_pathological_policy(self):
        recorder = TraceRecorder(kinds=("tune_epoch", "tune_switch"))
        buffer, controller = cyclic_controller(observer=recorder)
        for step in range(120):
            buffer.fetch(step % 6)
        assert controller.switches >= 1
        assert buffer.policy.name == "MRU"
        assert controller.live_name == "MRU"
        kinds = {event.kind for event in recorder.events}
        assert "tune_epoch" in kinds and "tune_switch" in kinds
        switch = next(e for e in recorder.events if e.kind == "tune_switch")
        assert switch.label == "MRU"
        assert switch.size == len(buffer.frames)   # resident at hand-off
        # Accounting survives the live switch.
        stats = buffer.stats
        assert stats.hits + stats.misses == stats.requests

    def test_unbeatable_margin_observes_without_acting(self):
        buffer, controller = cyclic_controller(hysteresis=1.0)
        for step in range(120):
            buffer.fetch(step % 6)
        assert controller.switches == 0
        assert buffer.policy.name == "LRU"
        assert controller.epochs >= 1              # it did watch

    def test_control_ghost_is_prepended(self):
        _, controller = cyclic_controller()
        names = [ghost.name for ghost in controller.ghosts]
        assert names[0] == "LRU"                   # the live config shadows too
        assert "MRU" in names

    def test_snapshot_shape(self):
        buffer, controller = cyclic_controller()
        for step in range(30):
            buffer.fetch(step % 6)
        snapshot = controller.snapshot()
        for key in ("live", "policy", "accesses", "epochs", "retunes",
                    "switches", "ghosts", "last_epoch", "sample"):
            assert key in snapshot
        assert snapshot["accesses"] == 30
        for ghost_state in snapshot["ghosts"].values():
            assert set(ghost_state) == {"requests", "hit_ratio", "resident"}

    def test_sampling_feeds_ghosts_a_subset(self):
        buffer, controller = cyclic_controller(sample=0.5, epoch_length=1000)
        for step in range(200):
            buffer.fetch(step % 12)
        snapshot = controller.snapshot()
        ghost_requests = max(
            state["requests"] for state in snapshot["ghosts"].values()
        )
        assert 0 < ghost_requests < 200
        assert snapshot["ghost_capacity"] == 2     # round(4 * 0.5)

    def test_sharded_buffer_converges_after_a_switch(self):
        system = BufferSystem.build(
            policy="LRU",
            capacity=8,
            shards=2,
            tuning=TuningSpec(
                candidates=(Candidate(name="MRU", policy="MRU"),),
                epoch_length=16,
                hysteresis=0.01,
                patience=1,
                cooldown=0,
            ),
        )
        seed_disk = build_disk()
        for page_id in range(N_PAGES):
            system.disk.store(seed_disk.read(page_id))
        for step in range(400):
            system.buffer.fetch(step % 12)
        assert system.tuner.switches >= 1
        # Every shard manager converged on the adopted policy (the
        # deciding shard immediately, the rest on their next tapped access).
        for manager in system.buffer.shard_managers():
            assert manager.policy.name == "MRU"
        stats = system.stats_snapshot()
        assert stats["hits"] + stats["misses"] == stats["requests"]
        assert stats["tuning"]["live"] == "MRU"


class TestConfigAndCandidates:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TuningSpec(epoch_length=0)
        with pytest.raises(ValueError):
            TuningSpec(hysteresis=-0.1)
        with pytest.raises(ValueError):
            TuningSpec(patience=0)
        with pytest.raises(ValueError):
            TuningSpec(cooldown=-1)
        with pytest.raises(ValueError):
            TuningSpec(sample=0.0)
        with pytest.raises(ValueError):
            TuningSpec(sample=1.5)

    def test_default_candidates_for_parameter_free_policy(self):
        panel = default_candidates("LRU")
        names = [candidate.name for candidate in panel]
        assert "LRU" not in names                  # the live policy is excluded
        assert "LRU-2" in names and "ASB" in names
        for candidate in panel:
            candidate.build_policy()               # all buildable

    def test_default_candidates_prefers_param_variants(self):
        panel = default_candidates("ASB")
        assert any(candidate.retune for candidate in panel)
        for candidate in panel:
            if candidate.retune:
                assert candidate.policy == "ASB"
                key = next(iter(candidate.retune))
                assert policy_param_space("ASB")[key].retunable

    def test_candidate_variants_validates(self):
        panel = candidate_variants("ASB", {"step_fraction": [0.1, 0.5]})
        assert len(panel) == 2
        assert all(candidate.retune for candidate in panel)
        with pytest.raises(ValueError):
            candidate_variants("ASB", {"no_such_knob": [1]})
        with pytest.raises(ValueError):
            candidate_variants("LRU", {"k": [2]})

    def test_build_rejects_bad_tuning_argument(self):
        # Includes the removed pre-TuningSpec spellings (True, a mapping).
        for bad in ("yes please", True, {"epoch_length": 32}):
            with pytest.raises(TypeError, match="tuning must be"):
                BufferSystem.build(policy="LRU", capacity=8, tuning=bad)

    def test_build_with_default_spec_wires_a_controller(self):
        system = BufferSystem.build(
            policy="LRU", capacity=8, tuning=TuningSpec()
        )
        assert system.tuner is not None
        assert system.buffer.tuner is system.tuner
        assert "tuning" in system.stats_snapshot()

    def test_build_without_tuning_has_no_tap(self):
        system = BufferSystem.build(policy="LRU", capacity=8)
        assert system.tuner is None
        assert system.buffer.tuner is None
        assert "tuning" not in system.stats_snapshot()


class TestTuningSpec:
    def test_defaults(self):
        spec = TuningSpec()
        assert [field.name for field in dataclasses.fields(spec)] == [
            "candidates", "epoch_length", "hysteresis", "patience",
            "cooldown", "sample",
        ]
        assert spec.candidates is None
        assert spec.epoch_length == 2000
        assert spec.sample == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TuningSpec(epoch_length=0)
        # The expert ensemble's options are gone, not silently ignored.
        for retired in ("mode", "experts", "weights_path", "eta", "weight_floor"):
            with pytest.raises(TypeError, match=f"'{retired}'"):
                TuningSpec(**{retired: None})

    def test_unknown_option_is_a_typeerror_naming_it(self):
        with pytest.raises(TypeError, match="'epoch_len'"):
            TuningSpec(epoch_len=100)
        with pytest.raises(TypeError, match="'mode'"):
            TuningSpec(mode="select")

    def test_build_with_spec_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = BufferSystem.build(
                policy="LRU", capacity=8, tuning=TuningSpec(epoch_length=32)
            )
        assert system.tuner is not None
        assert system.tuner.config.epoch_length == 32


class TestBenchmarkRung:
    """``BufferSystem.build(policy="ASB", tuning=TuningSpec())``: the build
    ``bench/run.py`` times for ``tuning.ghost_extra_us_per_fetch``."""

    def test_default_panel_shadows_without_deciding(self):
        database = build_database(us_mainland_like(n_objects=2_000, seed=7))
        tree = database.tree
        capacity = buffer_capacity(database, 0.047)
        query_set = database.query_set("U-W-100", 30, seed=1)

        def replay(tuning):
            system = BufferSystem.build(
                policy="ASB", capacity=capacity, disk=tree.pagefile.disk,
                tuning=tuning,
            )
            run_queries(system.buffer, tree, query_set)
            return system

        plain = replay(None)
        tuned = replay(TuningSpec())
        assert [ghost.name for ghost in tuned.tuner.ghosts] == [
            "ASB",
            "ASB candidate_fraction=0.50",
            "ASB candidate_fraction=0.12",
            "ASB step_fraction=0.02",
        ]
        assert tuned.buffer.stats.requests < TuningSpec().epoch_length
        assert tuned.tuner.epochs == 0
        assert tuned.buffer.stats.misses == plain.buffer.stats.misses
        assert tuned.buffer.stats.hits == plain.buffer.stats.hits


class TestRegistryMetadata:
    @pytest.mark.parametrize("name", policy_names())
    def test_param_defaults_round_trip_through_make_policy(self, name):
        space = policy_param_space(name)
        defaults = {
            pname: spec.default
            for pname, spec in space.items()
            if spec.default is not None
        }
        policy = make_policy(name, **defaults)
        assert policy.name

    def test_unknown_name_raises_named_error(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            policy_param_space("NOPE")
        assert excinfo.value.policy_name == "NOPE"
        assert isinstance(excinfo.value, ValueError)
        with pytest.raises(UnknownPolicyError):
            make_policy("NOPE")

    def test_aliases_share_the_canonical_param_space(self):
        for key, spec in POLICY_REGISTRY.items():
            for alias in spec.aliases:
                assert policy_param_space(alias) == policy_param_space(
                    spec.name
                )
                assert make_policy(alias).name == make_policy(spec.name).name


# ----------------------------------------------------------------------
# The phase-shifting workload: adaptive vs static experts
# ----------------------------------------------------------------------

#: The static experts every adaptive run is judged against.
STATIC_PANEL = ("LRU", "LRU-2", "ASB")

#: Absolute hit-ratio slack added to the 5 % relative bound, so phases
#: where everyone misses (the scan) cannot fail on noise.
ABSOLUTE_SLACK = 0.01


def _phase_hits(system, tree, workload) -> dict[str, tuple[int, int]]:
    """``(hits, requests)`` of each labelled phase of one continuous run.

    The buffer runs across the phase seams: adapting to them is the
    point, so there is no cleared-buffer protocol here.
    """
    scores = {}
    hits = requests = 0
    for span in workload.spans:
        for query in workload.queries[span.start:span.end]:
            with system.buffer.query_scope():
                query.run(tree, system.buffer)
        stats = system.buffer.stats
        scores[span.name] = (stats.hits - hits, stats.requests - requests)
        hits, requests = stats.hits, stats.requests
    return scores


def _overall(scores: dict[str, tuple[int, int]]) -> float:
    return sum(h for h, _ in scores.values()) / sum(r for _, r in scores.values())


@pytest.fixture(scope="module")
def phased_runs():
    """Every panel buffer over one seeded phased workload (counts only)."""
    seed = 7
    database = build_database(us_mainland_like(n_objects=4_000, seed=seed))
    tree = database.tree
    capacity = buffer_capacity(database, 0.05)
    workload = phased_workload(
        database.dataset.space, queries_per_phase=200, seed=seed
    )

    def run(policy, tuning=None):
        system = BufferSystem.build(
            policy=policy, capacity=capacity, disk=tree.pagefile.disk,
            tuning=tuning,
        )
        return _phase_hits(system, tree, workload), system

    static = {name: run(name)[0] for name in STATIC_PANEL}
    adaptive, system = run("LRU", TuningSpec(
        candidates=default_candidates("LRU"), epoch_length=60,
        hysteresis=0.01, patience=1, cooldown=1, sample=1.0,
    ))
    return static, adaptive, system.tuner.snapshot()


class TestPhasedWorkload:
    def test_adaptive_within_5pct_of_best_static_each_phase(self, phased_runs):
        static, adaptive, _ = phased_runs
        for phase, (hits, requests) in adaptive.items():
            best = max(h / r for h, r in (run[phase] for run in static.values()))
            got = hits / requests
            assert best - got <= max(0.05 * best, ABSOLUTE_SLACK), phase

    def test_adaptive_beats_worst_static_overall(self, phased_runs):
        static, adaptive, _ = phased_runs
        assert _overall(adaptive) >= min(map(_overall, static.values()))

    def test_controller_adapts_at_least_once(self, phased_runs):
        _, _, tuner = phased_runs
        assert tuner["retunes"] + tuner["switches"] >= 1

