"""Pressure and gain metrics of Sec. III-A.

The notions implemented here, with their equation numbers in the paper:

* ``pressure`` — the mapping ``b = f(q) = q`` (Eq. 4).
* ``link_gain_original`` — the original back-pressure link gain
  ``g_o(L, k) = max(0, (b_i - b_{i'}) mu)`` computed on the *total*
  incoming queue (Eq. 5, Varaiya-style).
* ``link_gain_array`` — the paper's modified gain (Eqs. 6-9):
  per-movement incoming pressure, shifted positive by ``W*``, with the
  special cases ``beta`` (full outgoing road) and ``alpha`` (empty
  incoming movement).
* ``phase_gain_array`` — the total gain of a phase, ``g(c_j, k)``
  (Eq. 10).
* ``max_link_gain_array`` — the maximum constituent link gain,
  ``g_max(c_j, k)`` (Eq. 11), together with the arg-max link
  ``L_max(c_j, k)`` needed by the keep-phase threshold of Eq. 12
  (``keep_threshold_array``).

The ``*_array`` kernels operate on whole ``(B, n_movements)``
queue/occupancy arrays and are behind the batched controllers
(:mod:`repro.control.batch`); the single-pass
:class:`~repro.core.util_bp.UtilBpController` evaluates the same
expressions in the same order on one observation.  The scalar
per-movement reference of Eqs. 8-12 (``link_gain``, ``phase_gain``,
``max_link_gain``, ``keep_threshold``) lives with the Algorithm 1
oracle in ``tests/reference_util_bp.py``: the tests hold the array
kernels *bit-for-bit* to it per (replication, movement) cell —
comparisons are the same, and the floating-point evaluation order of
every sum and product is preserved (phase sums accumulate
left-to-right in declaration order), so batched decisions never
diverge from serial ones by rounding.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.model.movements import Movement
from repro.model.queues import QueueObservation

__all__ = [
    "pressure",
    "link_gain_original",
    "link_gain_array",
    "link_gain_original_array",
    "phase_gain_array",
    "max_link_gain_array",
    "keep_threshold_array",
]


def pressure(queue_length: int) -> float:
    """The pressure mapping ``b = f(q) = q`` (Eq. 4).

    The paper keeps ``f`` as the identity; it is factored out so that
    alternative mappings (e.g. normalized or convex pressures) can be
    studied — see :mod:`repro.control.cap_bp` for the capacity-
    normalized variant used by the CAP-BP baseline.
    """
    if queue_length < 0:
        raise ValueError(f"queue length must be >= 0, got {queue_length}")
    return float(queue_length)


def link_gain_original(movement: Movement, obs: QueueObservation) -> float:
    """Original back-pressure link gain, Eq. 5.

    ``g_o(L_i^{i'}, k) = max(0, (b_i(k) - b_{i'}(k)) * mu_i^{i'})``

    Note that the incoming pressure is exerted by the *total* queue of
    the incoming road ``q_i`` — including vehicles that will not use
    this link.  The paper identifies this as a utilization problem.
    """
    b_in = pressure(obs.incoming_total(movement.in_road))
    b_out = pressure(obs.out_queue(movement.out_road))
    return max(0.0, (b_in - b_out) * movement.service_rate)


# -- batched array kernels ----------------------------------------------------
#
# The array variants take movement-aligned arrays whose trailing axis
# enumerates movements (typically shape ``(B, M)`` for B replications,
# but any leading shape broadcasts).  Phase structure enters through a
# dense membership table: ``members[..., j]`` is the movement column of
# the phase's j-th declared movement and ``valid[..., j]`` masks the
# padding of ragged phases.  The membership axes are arbitrary — the
# batched controllers use ``(n_nodes, max_phases, max_members)`` — and
# the outputs take the gains' leading axes plus the members' leading
# axes.


def link_gain_array(
    queues: np.ndarray,
    out_queues: np.ndarray,
    out_capacities: np.ndarray,
    w_star: np.ndarray,
    service_rates: np.ndarray,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Eq. 8 evaluated elementwise on movement-aligned arrays.

    ``queues``/``out_queues`` hold ``q_i^{i'}``/``q_{i'}`` per movement;
    ``out_capacities``, ``w_star`` (the movement's intersection ``W*``)
    and ``service_rates`` are the static per-movement columns.  The
    scalar reference ``link_gain`` per cell, including the check order
    (a full outgoing road wins over an empty incoming movement).
    """
    if alpha >= 0 or beta >= 0:
        raise ValueError(
            f"alpha and beta must be negative, got alpha={alpha}, beta={beta}"
        )
    general = (
        queues.astype(np.float64) - out_queues + w_star
    ) * service_rates
    gains = np.where(queues == 0, alpha, general)
    return np.where(out_queues >= out_capacities, beta, gains)


def link_gain_original_array(
    incoming_totals: np.ndarray,
    out_queues: np.ndarray,
    service_rates: np.ndarray,
) -> np.ndarray:
    """Eq. 5 on movement-aligned arrays (``incoming_totals`` is ``q_i``)."""
    return np.maximum(
        0.0,
        (incoming_totals.astype(np.float64) - out_queues) * service_rates,
    )


def phase_gain_array(
    gains: np.ndarray, members: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Eq. 10 as a dense segment reduction over phase memberships.

    Sums ``gains[..., members[..., j]]`` over the membership axis.  The
    accumulation is an explicit left-to-right loop over the (short)
    membership axis so the float addition order matches the scalar
    ``sum(link_gain(m) for m in phase.movements)`` exactly.
    """
    gathered = gains[..., members]
    total = np.zeros(gathered.shape[:-1], dtype=np.float64)
    for j in range(gathered.shape[-1]):
        total = total + np.where(valid[..., j], gathered[..., j], 0.0)
    return total


def max_link_gain_array(
    gains: np.ndarray, members: np.ndarray, valid: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 11 as a masked argmax over phase memberships.

    Returns ``(g_max, argmax_position)`` where the position indexes the
    membership axis (the phase's declaration order).  ``np.argmax``
    takes the first maximal entry, matching the scalar tie-break.
    """
    gathered = np.where(valid, gains[..., members], -np.inf)
    arg = gathered.argmax(axis=-1)
    g_max = np.take_along_axis(gathered, arg[..., None], axis=-1)[..., 0]
    return g_max, arg


def keep_threshold_array(
    max_capacities: np.ndarray, service_rates: np.ndarray
) -> np.ndarray:
    """Eq. 12 on arrays: ``g* = W* mu`` with ``mu`` of the arg-max link."""
    return max_capacities.astype(np.float64) * service_rates
