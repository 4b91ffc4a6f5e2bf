"""Auxiliary thermal channels and robustness metrics.

A thermal bath at occupation ``nbar`` with damping rate ``gamma`` couples
to a mode through two separate rows, one lowering with amplitude
``sqrt(gamma (nbar + 1))`` and one raising with amplitude
``sqrt(gamma nbar)``; they are never merged into one effective channel.
These rows are parasitic: the single-channel constraint counts only the
designed coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NotHurwitzError
from .gaussian import CovarianceMatrix, log_negativity, purity
from .numerics import max_abs
from .dynamics import MomentSystem, build_moment_system, steady_state
from .synthesis import Realization

LOWERING = "lowering"
RAISING = "raising"


@dataclass(frozen=True)
class NoiseChannel:
    """One thermal coupling: mode index, damping rate, occupation and direction."""

    mode: int
    gamma: float
    nbar: float
    kind: str

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode index must be nonnegative")
        if self.gamma < 0 or self.nbar < 0:
            raise ValueError("damping rate and occupation must be nonnegative")
        if self.kind not in (LOWERING, RAISING):
            raise ValueError(f"kind must be {LOWERING!r} or {RAISING!r}")

    @property
    def amplitude(self) -> float:
        if self.kind == LOWERING:
            return float(np.sqrt(self.gamma * (self.nbar + 1.0)))
        return float(np.sqrt(self.gamma * self.nbar))


def channel_row(channel: NoiseChannel, n_modes: int) -> NDArray[np.complex128]:
    """Coupling row of a thermal channel over ``(q_1..q_N, p_1..p_N)``.

    With ``a_j = (q_j + i p_j) / sqrt(2)``, a lowering channel couples to
    ``a_j`` and a raising channel to its adjoint.
    """
    if channel.mode >= n_modes:
        raise IndexError(f"mode index {channel.mode} out of range for {n_modes} modes")
    row = np.zeros(2 * n_modes, dtype=complex)
    sign = 1.0 if channel.kind == LOWERING else -1.0
    row[channel.mode] = channel.amplitude / np.sqrt(2.0)
    row[n_modes + channel.mode] = sign * 1j * channel.amplitude / np.sqrt(2.0)
    return row


def bath_channels(mode: int, gamma: float, nbar: float) -> tuple[NoiseChannel, NoiseChannel]:
    """The raising/lowering channel pair of one thermal bath."""
    return (
        NoiseChannel(mode=mode, gamma=gamma, nbar=nbar, kind=RAISING),
        NoiseChannel(mode=mode, gamma=gamma, nbar=nbar, kind=LOWERING),
    )


def augment(realization: Realization, channels) -> MomentSystem:
    """Moment system of a design with thermal rows stacked under its coupling."""
    return _with_rows(realization, [channel_row(ch, realization.n_modes) for ch in channels])


def _with_rows(realization: Realization, rows) -> MomentSystem:
    c_all = np.vstack([realization.C, *rows]) if rows else realization.C
    return build_moment_system(realization.G, c_all)


@dataclass(frozen=True)
class SteadyMetrics:
    """Steady-state covariance with its purity and (two-mode) entanglement."""

    covariance: CovarianceMatrix
    purity: float
    log_negativity: float | None


@dataclass(frozen=True)
class RobustnessReport:
    """Steady-state quality with and without the designed coupling.

    A branch is ``None`` when the corresponding system is unstable and has
    no steady state. ``target_distance`` is the max-norm distance of the
    with-coupling steady state from the target.
    """

    with_coupling: SteadyMetrics | None
    without_coupling: SteadyMetrics | None
    target_distance: float | None


def _metrics(system: MomentSystem) -> SteadyMetrics | None:
    try:
        v = steady_state(system)
    except NotHurwitzError:
        return None
    neg = log_negativity(v) if v.n_modes == 2 else None
    return SteadyMetrics(covariance=v, purity=purity(v), log_negativity=neg)


def robustness_report(realization: Realization, channels,
                      target: CovarianceMatrix) -> RobustnessReport:
    """Compare steady-state purity/entanglement with and without the design.

    The without branch keeps the same Hamiltonian matrix and drops only the
    designed coupling rows, leaving the thermal rows.
    """
    rows = [channel_row(ch, realization.n_modes) for ch in channels]
    with_metrics = _metrics(_with_rows(realization, rows))
    if rows:
        without_system = build_moment_system(realization.G, np.vstack(rows))
        without_metrics = _metrics(without_system)
    else:
        without_metrics = None
    distance = None
    if with_metrics is not None:
        distance = max_abs(with_metrics.covariance.V - target.V)
    return RobustnessReport(
        with_coupling=with_metrics,
        without_coupling=without_metrics,
        target_distance=distance,
    )
