"""Mesoscopic engine: the Sec.-II queuing model animated directly.

Vehicles are individual entities, but motion is abstracted to
*store-and-forward*: a served vehicle spends the road's free-flow time
in transit and then joins the dedicated movement queue of its next
turn.  Service respects the applied phase, the movement service rates
``µ_i^{i'}`` and the downstream capacities ``W_{i'}`` — exactly the
three conditions of Sec. II-C.

This engine is one-to-two orders of magnitude faster than the
microscopic one and is used for property-based tests (stability, work
conservation) and large parameter sweeps; the paper's headline figures
run on :mod:`repro.micro`.

:mod:`repro.meso.counts` implements the same dynamics again on
aggregate count structures (engine name ``"meso-counts"``): identical
queue-count trajectories under a shared seed, several times faster,
with aggregate-only metrics — the backend of choice for large
heterogeneous sweeps.  :mod:`repro.meso.vectorized` lifts those count
dynamics onto batched NumPy arrays (engine name ``"meso-vec"``):
``B`` seed-replications of one scenario shape stepped at once,
replication-exact against ``meso-counts`` — the backend of choice for
mass seed-replication.
"""

from repro.meso.counts import CountsSimulator
from repro.meso.simulator import MesoSimulator
from repro.meso.vehicle import MesoVehicle
from repro.meso.vectorized import BatchCountsSimulator

__all__ = [
    "BatchCountsSimulator",
    "CountsSimulator",
    "MesoSimulator",
    "MesoVehicle",
]
