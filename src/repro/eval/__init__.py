"""Experiment drivers: one module per paper figure plus ablations."""

from . import ablation, fig1, fig4, loc_report

__all__ = ["ablation", "fig1", "fig4", "loc_report"]
