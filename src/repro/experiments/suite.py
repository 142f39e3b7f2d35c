"""The full reproduction suite as one call.

``run_reproduction()`` executes every paper figure and every ablation at a
chosen scale and writes a single markdown report (plus one text file per
experiment), so the complete paper-vs-measured evidence regenerates with::

    python -m repro reproduce --out results/

``benchmarks/bench_suite.py`` runs the same two registries as one
pytest-benchmark case each; this module is the scriptable entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.experiments import ablation as ablations
from repro.experiments.figures import ALL_FIGURES, FigureResult, PaperSetup, make_setup

#: Every ablation, by report label.
ALL_ABLATIONS: dict[str, Callable[[PaperSetup], FigureResult]] = {
    "ablation_overflow_size": ablations.ablation_overflow_size,
    "ablation_step_size": ablations.ablation_step_size,
    "ablation_sams": ablations.ablation_sams,
    "ablation_baselines": ablations.ablation_baselines,
    "ablation_pinned_levels": ablations.ablation_pinned_levels,
    "ablation_adaptive_buffers": ablations.ablation_adaptive_buffers,
    "ablation_object_pages": ablations.ablation_object_pages,
    "ablation_partitioned_buffer": ablations.ablation_partitioned_buffer,
    "ablation_updates": ablations.ablation_updates,
    "ablation_moving_objects": lambda setup: ablations.ablation_updates(
        setup, moving=True
    ),
    "ablation_io_time": ablations.ablation_io_time,
    "ablation_join": ablations.ablation_join,
    "ablation_drifting_hotspot": ablations.ablation_drifting_hotspot,
    "ablation_knn": ablations.ablation_knn,
    "ablation_multiclient": ablations.ablation_multiclient,
    "ablation_opt_gap": ablations.ablation_opt_gap,
    "ablation_build_method": ablations.ablation_build_method,
}


@dataclass(slots=True)
class ReproductionRun:
    """Everything one suite run produced."""

    results: dict[str, FigureResult] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return not self.errors

    def to_markdown(self) -> str:
        lines = [
            "# Reproduction report",
            "",
            "Regenerated tables for every figure of Brinkhoff (EDBT 2002) "
            "plus the extension ablations.  See EXPERIMENTS.md for the "
            "paper-vs-measured interpretation of each one.",
            "",
        ]
        for name, result in self.results.items():
            lines.append(f"## {result.figure}: {result.title}")
            lines.append("")
            if result.notes:
                lines.append(result.notes)
                lines.append("")
            lines.append("```")
            from repro.experiments.report import format_table

            lines.append(format_table(result.headers, result.rows))
            lines.append("```")
            lines.append("")
        if self.errors:
            lines.append("## Errors")
            lines.append("")
            for name, message in self.errors.items():
                lines.append(f"* `{name}`: {message}")
        return "\n".join(lines)


def run_reproduction(
    setup: PaperSetup | None = None,
    output_dir: str | Path | None = None,
    include_figures: bool = True,
    include_ablations: bool = True,
    progress: Callable[[str], None] | None = None,
) -> ReproductionRun:
    """Run the complete experiment suite; optionally write a report.

    ``setup`` defaults to the bench scale.  Individual experiment failures
    are captured in :attr:`ReproductionRun.errors` rather than aborting the
    whole run.  When ``output_dir`` is given, one ``.txt`` per experiment
    and a combined ``REPORT.md`` are written there.
    """
    setup = setup or make_setup()
    run = ReproductionRun()
    jobs: dict[str, Callable[[PaperSetup], FigureResult]] = {}
    if include_figures:
        jobs.update(ALL_FIGURES)
    if include_ablations:
        jobs.update(ALL_ABLATIONS)
    for name, job in jobs.items():
        if progress is not None:
            progress(name)
        try:
            run.results[name] = job(setup)
        except Exception as error:  # noqa: BLE001 - reported, not swallowed
            run.errors[name] = f"{type(error).__name__}: {error}"
    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, result in run.results.items():
            (directory / f"{name}.txt").write_text(
                result.to_text() + "\n", encoding="utf-8"
            )
        (directory / "REPORT.md").write_text(
            run.to_markdown() + "\n", encoding="utf-8"
        )
    return run
