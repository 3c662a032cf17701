"""The paper's primary contribution.

* :mod:`repro.core.pressure` — the pressure mapping and the link/phase
  gain kernels of Sec. III-A (Eqs. 4-12).
* :mod:`repro.core.util_bp` — the utilization-aware adaptive
  back-pressure controller, a line-by-line implementation of
  Algorithm 1.
* :mod:`repro.core.config` — the controller's tunable parameters with
  the paper's evaluation defaults.
* :mod:`repro.core.engine` — the :class:`SimulationEngine` protocol
  every plant implements, and the name-based engine registry.
"""

from repro.core.config import UtilBpConfig
from repro.core.engine import (
    ENGINE_NAMES,
    SimulationEngine,
    build_engine,
    engine_names,
    register_engine,
)
from repro.core.pressure import link_gain_original, pressure
from repro.core.util_bp import UtilBpController

__all__ = [
    "UtilBpConfig",
    "SimulationEngine",
    "ENGINE_NAMES",
    "engine_names",
    "register_engine",
    "build_engine",
    "pressure",
    "link_gain_original",
    "UtilBpController",
]
