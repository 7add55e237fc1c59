"""Experiment registry: every table and figure of the paper's evaluation.

Each experiment is a plain function (:mod:`repro.analysis.experiments`)
returning a result object whose ``render()`` reproduces the paper's
rows/series; :mod:`repro.analysis.registry` wraps them in
:class:`~repro.analysis.registry.ExperimentSpec` records that the
parallel runner (:mod:`repro.runner`) shards across a process pool, and
:mod:`repro.analysis.docs` regenerates EXPERIMENTS.md from the results.
"""

from repro.analysis.experiments import (
    crossover,
    figure2,
    figure7,
    figure8,
    figure11,
    figure12,
    section56,
    splash_figure,
    table1,
    table3,
    table4,
)
from repro.paperdata import (
    PAPER_BANK_UTILIZATION,
    PAPER_TABLE1,
    PAPER_TABLE3,
    PAPER_TABLE4,
    spec_ratio_constant,
)
from repro.analysis.render import ascii_table, percent, series_block
from repro.analysis.registry import (
    CLI_KNOBS,
    SPECS,
    ExperimentSpec,
    run_experiments,
)
from repro.analysis.vision import (
    FramebufferBudget,
    MotherboardBudget,
    framebuffer_budget,
    motherboard_budget,
)

__all__ = [
    "CLI_KNOBS",
    "PAPER_BANK_UTILIZATION",
    "PAPER_TABLE1",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "SPECS",
    "ExperimentSpec",
    "FramebufferBudget",
    "MotherboardBudget",
    "ascii_table",
    "framebuffer_budget",
    "motherboard_budget",
    "crossover",
    "figure2",
    "figure7",
    "figure8",
    "figure11",
    "figure12",
    "percent",
    "run_experiments",
    "section56",
    "series_block",
    "spec_ratio_constant",
    "splash_figure",
    "table1",
    "table3",
    "table4",
]
