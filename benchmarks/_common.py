"""Shared helpers for the paper-reproduction benches.

Every bench regenerates one artifact of the paper (a Table 1 block, a
theorem's scaling claim, or Figure 1).  Results are rendered as fixed-
width tables, printed, and saved under ``benchmarks/results/``.  System
performance is measured elsewhere, by ``benchmarks/ladder/``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_*.py
(pytest only collects ``test_*.py`` from a bare directory argument).
"""

from __future__ import annotations

import os

from repro.runtime import Simulation
from repro.analysis import render_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_table(name: str, headers, rows, title: str) -> str:
    """Render, print and persist one result table."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = render_table(headers, rows, title=title)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print("\n" + text)
    return text


def run_sim(scheme, stream, k, seed=0, space_interval=256):
    """Run one simulation and return it (space sampled coarsely)."""
    sim = Simulation(scheme, k, seed=seed, space_sample_interval=space_interval)
    sim.run(stream)
    return sim
