#!/usr/bin/env python3
"""Watch ASB's self-tuning knob react to a changing query profile.

Runs the experiment behind Figure 14 of the paper and renders the
candidate-set size as an ASCII chart: the query stream switches from an
intensified distribution (hot-spot queries — LRU should dominate, small
candidate set) to a uniform distribution (spatial criterion should
dominate, large candidate set) to a similar distribution (somewhere in
between), with no human intervention in between.

Run:  python examples/adaptive_buffer_demo.py
"""

from repro.experiments.figures import figure_14, make_setup
from repro.experiments.plots import line_chart

CHART_WIDTH = 72
CHART_HEIGHT = 12


def main() -> None:
    # 200 queries per set: Figure 14 runs twice that per phase.
    result = figure_14(make_setup(n_queries=200))
    sizes = result.series["candidate_size"]
    print(f"candidate-set size over {len(sizes)} queries:\n")
    print(
        line_chart(
            sizes,
            width=CHART_WIDTH,
            height=CHART_HEIGHT,
            label="phases switch at 1/3 and 2/3 of the x-axis",
        )
    )
    print()
    print(result.to_text())
    print(
        "\nLow = the buffer behaves like LRU; high = the spatial criterion "
        "dominates.\nNo parameter was touched between the phases — that is "
        "the paper's self-tuning claim."
    )


if __name__ == "__main__":
    main()
