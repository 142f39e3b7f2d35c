"""Page-replacement policies.

The policy zoo follows the paper's taxonomy:

* the baseline :class:`LRU`, plus the analytical baselines :class:`FIFO`
  and :class:`MRU` (the recency-inverse order);
* structural LRU variants (Section 2.1) — :class:`LRUT` (type-based) and
  :class:`LRUP` (priority/level-based);
* history-based (Section 2.2) — :class:`LRUK`;
* spatial (Section 2.3) — :class:`SpatialPolicy` with criteria A, EA, M,
  EM, EO;
* combined (Section 4.1) — :class:`SLRU` with a static candidate set;
* self-tuning (Section 4.2) — :class:`ASB`, the adaptable spatial buffer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.buffer.policies.asb import ASB
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.fifo import FIFO
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.lru_p import LRUP
from repro.buffer.policies.lru_t import LRUT
from repro.buffer.policies.mru import MRU
from repro.buffer.policies.slru import SLRU
from repro.buffer.policies.spatial import (
    SPATIAL_CRITERIA,
    SpatialPolicy,
    spatial_criterion,
)

# ----------------------------------------------------------------------
# The policy registry: one construction path for the whole zoo
# ----------------------------------------------------------------------


class UnknownPolicyError(ValueError):
    """A policy name (or alias) is not in :data:`POLICY_REGISTRY`.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites keep working; catch this name to distinguish a bad policy
    name from a bad parameter value.
    """

    def __init__(self, name: str) -> None:
        self.policy_name = name
        super().__init__(
            f"unknown policy {name!r}; known policies: "
            + ", ".join(policy_names())
        )


@dataclass(frozen=True)
class ParamSpec:
    """One tunable constructor parameter of a registered policy.

    The registry's machine-readable keyword surface: the declared name is
    the *normalised* keyword the constructor accepts, ``kind``/``lo``/
    ``hi``/``choices`` describe its value space, and ``retunable`` marks
    parameters a live policy instance can change in place via
    :meth:`~repro.buffer.policies.base.ReplacementPolicy.retune` — the
    parameter space the self-tuning controller (:mod:`repro.tuning`)
    explores with ghost caches.
    """

    name: str
    kind: str = "float"  # "int" | "float" | "bool" | "str"
    default: object = None
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    retunable: bool = False
    description: str = ""

    def validate(self, owner: str, value: object) -> None:
        """Reject values outside the declared space with a coherent error."""
        expected = {
            "int": int,
            "float": (int, float),
            "bool": bool,
            "str": str,
            "object": object,  # callables, mappings — not range-checkable
        }[self.kind]
        if self.kind == "int" and isinstance(value, bool):
            raise TypeError(
                f"policy {owner!r} parameter {self.name!r} expects an int, "
                f"got bool"
            )
        if not isinstance(value, expected):
            raise TypeError(
                f"policy {owner!r} parameter {self.name!r} expects "
                f"{self.kind}, got {type(value).__name__}"
            )
        if self.choices and value not in self.choices:
            raise ValueError(
                f"policy {owner!r} parameter {self.name!r} must be one of "
                f"{sorted(self.choices)}, got {value!r}"
            )
        if self.lo is not None and value < self.lo:
            raise ValueError(
                f"policy {owner!r} parameter {self.name!r} must be "
                f">= {self.lo}, got {value!r}"
            )
        if self.hi is not None and value > self.hi:
            raise ValueError(
                f"policy {owner!r} parameter {self.name!r} must be "
                f"<= {self.hi}, got {value!r}"
            )


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy: canonical name, constructor, parameter space.

    ``params`` declares the *normalised* keyword surface the constructor
    accepts — keyword validation is derived from it, so the registry
    rejects unknown names (and out-of-range values, where the parameter
    declares a range) up front with a message naming the accepted
    spellings, instead of seventeen slightly different ``TypeError``
    texts.
    """

    name: str
    factory: Callable[..., ReplacementPolicy]
    params: tuple[ParamSpec, ...] = ()
    aliases: tuple[str, ...] = ()
    description: str = ""
    defaults: dict = field(default_factory=dict)

    @property
    def keywords(self) -> tuple[str, ...]:
        """The accepted keyword names, derived from :attr:`params`."""
        return tuple(param.name for param in self.params)

    def param(self, name: str) -> ParamSpec:
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(f"policy {self.name!r} has no parameter {name!r}")

    def retunable_params(self) -> tuple[ParamSpec, ...]:
        """Parameters a live instance can change via ``retune()``."""
        return tuple(param for param in self.params if param.retunable)

    def build(self, **kwargs) -> ReplacementPolicy:
        by_name = {param.name: param for param in self.params}
        unknown = sorted(set(kwargs) - set(by_name))
        if unknown:
            accepted = ", ".join(by_name) or "none"
            raise TypeError(
                f"policy {self.name!r} does not accept keyword(s) "
                f"{unknown}; accepted keywords: {accepted}"
            )
        for key, value in kwargs.items():
            by_name[key].validate(self.name, value)
        merged = {**self.defaults, **kwargs}
        return self.factory(**merged)


#: The candidate-set fraction shared by SLRU and ASB, declared once.
_CANDIDATE_FRACTION = ParamSpec(
    "candidate_fraction",
    kind="float",
    default=0.25,
    lo=0.01,
    hi=1.0,
    retunable=True,
    description="LRU candidate set as a fraction of the buffer",
)

_CRITERION = ParamSpec(
    "criterion",
    kind="str",
    default="A",
    choices=tuple(sorted(SPATIAL_CRITERIA)),
    retunable=True,
    description="spatial ranking criterion",
)

_RETAIN_HISTORY = ParamSpec(
    "retain_history",
    kind="bool",
    default=True,
    description="keep HIST across evictions",
)


def _lru_k_variant(k: int) -> PolicySpec:
    """``LRU-<k>``: LRU-K with K fixed by the name, so ``k`` is no keyword."""
    return PolicySpec(
        f"LRU-{k}",
        LRUK,
        params=(_RETAIN_HISTORY,),
        defaults={"k": k},
        description=f"LRU-K with K={k}",
    )


def _specs() -> dict[str, PolicySpec]:
    entries = [
        PolicySpec("LRU", LRU, description="least recently used"),
        PolicySpec("FIFO", FIFO, description="first in, first out"),
        PolicySpec("MRU", MRU, description="most recently used"),
        PolicySpec("LRU-T", LRUT, description="type-based LRU (Section 2.1)"),
        PolicySpec(
            "LRU-P",
            LRUP,
            params=(
                ParamSpec(
                    "priority",
                    kind="object",
                    description="callable Page -> eviction priority",
                ),
            ),
            description="priority/level-based LRU (Section 2.1)",
        ),
        PolicySpec(
            "LRU-K",
            LRUK,
            params=(
                ParamSpec(
                    "k", kind="int", default=2, lo=1, hi=8, retunable=True,
                    description="history depth K",
                ),
                _RETAIN_HISTORY,
            ),
            aliases=("LRUK",),
            description="history-based LRU-K (Section 2.2)",
        ),
        PolicySpec(
            "SLRU",
            SLRU,
            params=(_CANDIDATE_FRACTION, _CRITERION),
            description="static LRU candidate set + spatial victim (4.1)",
        ),
        PolicySpec(
            "ASB",
            ASB,
            params=(
                _CRITERION,
                ParamSpec(
                    "overflow_fraction", kind="float", default=0.2,
                    lo=0.0, hi=0.99,
                    description="overflow buffer share of the capacity",
                ),
                _CANDIDATE_FRACTION,
                ParamSpec(
                    "step_fraction", kind="float", default=0.01,
                    lo=0.001, hi=1.0, retunable=True,
                    description="adaptation step as a main-part fraction",
                ),
                ParamSpec(
                    "record_trace", kind="bool", default=False,
                    description="sample (clock, candidate_size) per adaptation",
                ),
            ),
            description="adaptable spatial buffer (Section 4.2)",
        ),
    ]
    # The named LRU-K variants the experiments sweep (Fig. 4-9).
    entries.extend(_lru_k_variant(k) for k in (2, 3, 5))
    # The pure spatial criteria are policies of their own in the paper.
    for criterion in sorted(SPATIAL_CRITERIA):
        entries.append(
            PolicySpec(
                criterion,
                SpatialPolicy,
                defaults={"criterion": criterion},
                description=f"pure spatial replacement, criterion {criterion}",
            )
        )
    registry: dict[str, PolicySpec] = {}
    for spec in entries:
        for key in (spec.name, *spec.aliases):
            registry[key.upper()] = spec
    return registry


POLICY_REGISTRY: dict[str, PolicySpec] = _specs()

#: Matches parameterised LRU-K names ("LRU-4", "LRU-7") beyond the three
#: pre-registered variants.
_LRU_K_NAME = re.compile(r"^LRU-(\d+)$")


def _lookup(name: str) -> PolicySpec:
    """The spec behind a canonical name, an alias or an ``LRU-<k>`` name."""
    key = name.strip().upper()
    spec = POLICY_REGISTRY.get(key)
    if spec is not None:
        return spec
    match = _LRU_K_NAME.match(key)
    if match is None:
        raise UnknownPolicyError(name)
    k = int(match.group(1))
    POLICY_REGISTRY["LRU-K"].param("k").validate(name, k)
    return _lru_k_variant(k)


def policy_names() -> list[str]:
    """The canonical policy names, sorted (aliases excluded)."""
    return sorted({spec.name for spec in POLICY_REGISTRY.values()})


def policy_param_space(name: str | None = None) -> dict:
    """The tunable-parameter space of one policy, or of the whole zoo.

    With a ``name``, returns ``{param_name: ParamSpec}`` for that policy;
    without, returns ``{policy_name: {param_name: ParamSpec}}`` for every
    registered policy (parameter-free policies map to ``{}``).  This is
    the surface the self-tuning controller (:mod:`repro.tuning`) explores:
    ``ParamSpec.retunable`` marks knobs a live instance accepts through
    :meth:`~repro.buffer.policies.base.ReplacementPolicy.retune`, and
    ``lo``/``hi``/``choices`` bound the variants worth ghost-simulating.

    >>> sorted(policy_param_space("SLRU"))
    ['candidate_fraction', 'criterion']
    >>> policy_param_space("LRU")
    {}
    """
    if name is not None:
        return {param.name: param for param in _lookup(name).params}
    return {
        spec.name: {param.name: param for param in spec.params}
        for spec in POLICY_REGISTRY.values()
    }


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Construct a policy by canonical name with normalised keywords.

    The single construction path used by the CLI, the ``repro.api``
    facade, and the page server: names are case-insensitive and accept a
    few historical aliases; keywords are validated against the policy's
    normalised surface, so misspellings fail with the accepted list.
    Parameterised LRU-K names (``LRU-4``) resolve to ``LRUK(k=4)``, with
    K range-checked as ``LRU-K``'s ``k`` and the keywords of ``LRU-2``.

    >>> make_policy("asb").name
    'ASB'
    >>> make_policy("SLRU", candidate_fraction=0.5).name
    'SLRU 50%'
    """
    return _lookup(name).build(**kwargs)


__all__ = [
    "ReplacementPolicy",
    "ParamSpec",
    "PolicySpec",
    "POLICY_REGISTRY",
    "UnknownPolicyError",
    "make_policy",
    "policy_names",
    "policy_param_space",
    "LRU",
    "FIFO",
    "MRU",
    "LRUT",
    "LRUP",
    "LRUK",
    "SpatialPolicy",
    "SLRU",
    "ASB",
    "SPATIAL_CRITERIA",
    "spatial_criterion",
]
