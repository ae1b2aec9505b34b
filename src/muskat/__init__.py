"""Contour-dynamics simulator and verification toolkit for the two-phase
Muskat interface problem.

The top level exports the scenario entry points; everything else is
imported from its submodule (muskat.core, muskat.diagnostics, ...).
"""

__version__ = "0.1.0"

from .scenario import RunConfig, load_config, run_scenario

__all__ = ["__version__", "RunConfig", "load_config", "run_scenario"]
