"""repro.tuning — online self-tuning with ghost caches and expert panels.

The paper's ASB policy tunes a single knob (the candidate-set size) by
comparing two criteria over the same buffer.  This package generalises
the feedback loop to the whole buffer configuration: a panel of
candidate configurations runs as metadata-only :class:`GhostCache`
shadows of the live reference stream, and an epoch-based
:class:`TuningController` retunes the live policy in place or hands the
buffer over to a better policy — live, without evicting a page.
:class:`TuningSpec` is its one configuration object.

See ``docs/tuning.md`` for the design tour.
"""

from repro.tuning.controller import (
    Candidate,
    TuningController,
    TuningSpec,
    candidate_variants,
    default_candidates,
)
from repro.tuning.ghost import GhostCache, MetaFactory, PageMeta

__all__ = [
    "Candidate",
    "GhostCache",
    "MetaFactory",
    "PageMeta",
    "TuningController",
    "TuningSpec",
    "candidate_variants",
    "default_candidates",
]
