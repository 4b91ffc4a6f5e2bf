"""Auxiliary thermal channels and robustness metrics.

A thermal bath at occupation ``nbar`` with damping rate ``gamma`` couples
to a mode through two separate rows, one lowering with amplitude
``sqrt(gamma (nbar + 1))`` and one raising with amplitude
``sqrt(gamma nbar)``; they are never merged into one effective channel.
These rows are parasitic: the single-channel constraint counts only the
designed coupling. One block builder, whose one-row case is
:func:`channel_row`, is the one place a channel becomes moment-equation
terms: :func:`augment` and :func:`robustness_report` stack its rows under
``C`` and call ``build_moment_system``, as ``verify`` and
``simulate`` do with a file's ``C_noise``. A row touches only its own
mode's ``(q_j, p_j)``, so a passive diagonal Hamiltonian under thermal
rows alone still splits into per-mode blocks solved in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidCovarianceError, NotHurwitzError
from .gaussian import CovarianceMatrix, log_negativity, purity
from .numerics import max_abs
from .dynamics import (MomentSystem, _coupled_steady_state, _require_target_modes,
                       build_moment_system, steady_state)
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
        if not (0 <= self.gamma < math.inf and 0 <= self.nbar < math.inf):
            raise ValueError("damping rate and occupation must be finite and nonnegative")
        if self.kind not in (LOWERING, RAISING):
            raise ValueError(f"kind must be {LOWERING!r} or {RAISING!r}")

    @property
    def amplitude(self) -> float:
        if self.kind == LOWERING:
            return math.sqrt(self.gamma * (self.nbar + 1.0))
        return math.sqrt(self.gamma * self.nbar)


def channel_row(channel: NoiseChannel, n_modes: int) -> NDArray[np.complex128]:
    """Coupling row of a thermal channel over ``(q_1..q_N, p_1..p_N)``.

    With ``a_j = (q_j + i p_j) / sqrt(2)``, a lowering channel couples to
    ``a_j`` and a raising channel to its adjoint. The one-row case of
    :func:`_channel_rows`.
    """
    return _channel_rows([channel], n_modes)[0]


def bath_channels(mode: int, gamma: float, nbar: float) -> tuple[NoiseChannel, NoiseChannel]:
    """The raising/lowering channel pair of one thermal bath."""
    return (
        NoiseChannel(mode=mode, gamma=gamma, nbar=nbar, kind=RAISING),
        NoiseChannel(mode=mode, gamma=gamma, nbar=nbar, kind=LOWERING),
    )


def augment(realization: Realization, channels) -> MomentSystem:
    """Moment system of a design with thermal rows stacked under its coupling.

    ``build_moment_system`` of ``G`` and ``C`` with each channel's
    :func:`channel_row` stacked under ``C``.

    Raises ``IndexError`` for a channel whose mode the design lacks.
    """
    rows = _channel_rows(channels, realization.n_modes)
    return build_moment_system(realization.G, np.vstack([realization.C, rows]))


def _channel_rows(channels, n_modes: int) -> NDArray[np.complex128]:
    """The channels' coupling rows as one ``(len(channels), 2 N)`` block.

    Row ``k`` holds ``h = amplitude / sqrt(2)`` at ``q_j`` and ``+i h``
    (lowering) or ``-i h`` (raising) at ``p_j`` for channel ``k`` on mode
    ``j``; every entry is written into a zero block by one assignment.
    Raises ``IndexError`` naming the first channel whose mode is not among
    the ``n_modes``.
    """
    channels = list(channels)
    outside = [ch.mode for ch in channels if ch.mode >= n_modes]
    if outside:
        raise IndexError(f"mode index {outside[0]} out of range for {n_modes} modes")
    width = 2 * n_modes
    root2 = math.sqrt(2.0)
    half = [ch.amplitude / root2 for ch in channels]
    at = [k * width + ch.mode for k, ch in enumerate(channels)]
    rows = np.zeros((len(channels), width), dtype=complex)
    rows.reshape(-1)[at + [a + n_modes for a in at]] = half + [
        (1j if ch.kind == LOWERING else -1j) * h for ch, h in zip(channels, half)]
    return rows


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
    no steady state, or when its solved steady state violates the
    uncertainty relation. ``target_distance`` is the max-norm distance of the
    with-coupling steady state from the target.
    """

    with_coupling: SteadyMetrics | None
    without_coupling: SteadyMetrics | None
    target_distance: float | None


def _metrics(solve) -> SteadyMetrics | None:
    """Metrics of the covariance ``solve()`` returns; None when it has none.

    The purity is NaN when the covariance's determinant rounds to <= 0."""
    try:
        v = solve()
    except (NotHurwitzError, InvalidCovarianceError):
        return None
    try:
        steady_purity = purity(v)
    except InvalidCovarianceError:
        steady_purity = float("nan")
    neg = log_negativity(v) if v.n_modes == 2 else None
    return SteadyMetrics(covariance=v, purity=steady_purity, log_negativity=neg)


def robustness_report(realization: Realization, channels,
                      target: CovarianceMatrix) -> RobustnessReport:
    """Compare steady-state purity/entanglement with and without the design.

    Both systems come from :func:`build_moment_system` with every channel's
    :func:`channel_row` stacked under the coupling: under ``C`` with it,
    alone without it, so the without branch keeps the same Hamiltonian
    matrix and drops only the designed coupling rows. The with branch is
    solved as ``verify_generation`` solves a design with extra rows: one
    bath ``(gamma, nbar)`` on every mode shifts the design's drift by
    ``-gamma/2`` and reuses the eigenbasis the design keeps. A thermal row
    touches only its own mode's ``(q_j, p_j)``, so the without branch of a
    passive diagonal design splits into per-mode 2 x 2 blocks, which
    :func:`steady_state` solves in closed form; a mode with no bath leaves
    it without a steady state (``None``). A target with another mode count
    than the design raises :class:`~gsynth.errors.DimensionError` first.
    """
    _require_target_modes(realization, target)
    rows = _channel_rows(channels, realization.n_modes)
    with_metrics = _metrics(
        lambda: CovarianceMatrix(_coupled_steady_state(realization, rows)[0]))
    without_metrics = _metrics(lambda: steady_state(build_moment_system(realization.G, rows)))
    distance = None
    if with_metrics is not None:
        distance = max_abs(with_metrics.covariance.V - target.V)
    return RobustnessReport(
        with_coupling=with_metrics,
        without_coupling=without_metrics,
        target_distance=distance,
    )
