"""Every figure of the paper and every study table, one bench case each.

Parametrised over ``ALL_FIGURES | ALL_ABLATIONS`` — the registries
``python -m repro reproduce`` runs — so a table cannot be in one and missing
from the other.  Each case regenerates its table once, prints it and writes
it to ``benchmarks/results/``; select one with ``-k``::

    pytest benchmarks/bench_suite.py --benchmark-only -s -k figure_13

Three cases carry a shape guard, a claim of the paper that must survive at
bench scale; its name is part of the case id (``figure_13-robustness``).
EXPERIMENTS.md holds the paper-vs-measured notes of every table.
"""

import pytest
from conftest import parse_gain, publish, run_once

from repro.experiments.figures import ALL_FIGURES, figure_14
from repro.experiments.suite import ALL_ABLATIONS

TABLES = ALL_FIGURES | ALL_ABLATIONS


def guard_crossover(result):
    """Figure 9: where interest is intensified the hot pages are spatially
    *small*, so the pure spatial policy evicts exactly them.  On database
    1's intensified window sets at the largest buffer, LRU-2 must beat A
    (the paper's crossover)."""
    a_col = result.headers.index("A")
    k2_col = result.headers.index("LRU-2")
    int_rows = [
        row
        for row in result.rows
        if row[0] == "db1" and str(row[1]).startswith("INT-W")
        and row[2] == "4.7%"
    ]
    assert int_rows
    for row in int_rows:
        assert parse_gain(row[k2_col]) > parse_gain(row[a_col])


def guard_robustness(result):
    """Figure 13, the paper's central claims: ASB tracks A where A excels
    and avoids its losses elsewhere."""
    a_col = result.headers.index("A")
    asb_col = result.headers.index("ASB")
    a_gains = [parse_gain(row[a_col]) for row in result.rows]
    asb_gains = [parse_gain(row[asb_col]) for row in result.rows]
    # 1. The pure spatial policy is NOT robust: it loses >= 10 % somewhere.
    assert min(a_gains) < -0.10, "A should collapse on an intensified set"
    # 2. ASB IS robust: never meaningfully below LRU (noise margin 5 %).
    assert min(asb_gains) > -0.05, "ASB must stay at LRU level or above"
    # 3. ASB keeps real upside where the spatial criterion works.
    assert max(asb_gains) > 0.08


def guard_trace(result):
    """Figure 14: the candidate set shrinks while LRU dominates
    (intensified phase), grows while the spatial criterion does (uniform
    phase) and settles in between — without human intervention."""
    trace = result.series["candidate_size"]
    assert trace
    # The knob must actually move: the stream's phases pull in different
    # directions.
    assert max(trace) > min(trace)
    # The adaptation now rides on the buffer-event stream: every knob
    # movement corresponds to an `adapt` event with a monotone clock.
    adapt_clocks = result.series["adaptation_clock"]
    assert adapt_clocks, "ASB must emit adapt events over the mixed stream"
    assert adapt_clocks == sorted(adapt_clocks)
    # The rolling hit ratio is sampled once per query alongside the knob.
    hit_ratios = result.series["rolling_hit_ratio"]
    assert len(hit_ratios) == len(trace)
    assert all(0.0 <= ratio <= 1.0 for ratio in hit_ratios)


GUARDS = {
    "figure_09": guard_crossover,
    "figure_13": guard_robustness,
    "figure_14": guard_trace,
}

#: Figure 14 runs twice the usual queries per phase, so each phase is long
#: enough for the knob to settle.
OVERRIDES = {
    "figure_14": lambda setup: figure_14(setup, queries_per_phase=2 * setup.n_queries)
}


def case_id(name):
    if name not in GUARDS:
        return name
    return f"{name}-{GUARDS[name].__name__.removeprefix('guard_')}"


@pytest.mark.parametrize("name", TABLES, ids=case_id)
def test_table(name, benchmark, paper_setup, results_dir):
    experiment = OVERRIDES.get(name, TABLES[name])
    result = run_once(benchmark, lambda: experiment(paper_setup))
    publish(result, results_dir)
    assert result.rows
    if name in GUARDS:
        GUARDS[name](result)
