"""Auxiliary thermal channels and robustness metrics.

A thermal bath at occupation ``nbar`` with damping rate ``gamma`` couples
to a mode through two separate rows, one lowering with amplitude
``sqrt(gamma (nbar + 1))`` and one raising with amplitude
``sqrt(gamma nbar)``; they are never merged into one effective channel.
These rows are parasitic: the single-channel constraint counts only the
designed coupling. A phase-insensitive row touches one mode's ``a_j`` or
``a_j^dag`` alone, so its share of the moment equations is diagonal, and
:func:`augment` and :func:`robustness_report` add it in closed form
without stacking the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidCovarianceError, NotHurwitzError
from .gaussian import CovarianceMatrix, log_negativity, purity, symplectic_form
from .numerics import max_abs
from .dynamics import MomentSystem, _moment_matrices, steady_state
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
    """Moment system of a design with thermal rows stacked under its coupling.

    Equal, up to rounding, to ``build_moment_system`` of ``G`` and ``C``
    with each channel's :func:`channel_row` stacked under ``C``; the
    channels enter as diagonal terms (:func:`_bath_diagonals`).

    Raises ``IndexError`` for a channel whose mode the design lacks.
    """
    return _thermal_system(realization.G, realization.C, list(channels))


def _thermal_system(g, c, channels: list[NoiseChannel]) -> MomentSystem:
    """Moment system of ``(g, c)`` with every channel's row stacked under ``c``."""
    return _with_baths(*_moment_matrices(g, c), _bath_diagonals(channels, g.shape[0] // 2))


def _bath_diagonals(channels: list[NoiseChannel], n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """What the channels' rows add to the drift and diffusion diagonals, or None for none.

    No row is formed. With ``a_j = (q_j + i p_j) / sqrt(2)`` a channel of
    amplitude ``alpha`` on mode ``j`` has the row ``(alpha / sqrt(2))
    (e_qj + s i e_pj)``, ``s = +1`` lowering and ``-1`` raising. Its
    ``c^dag c`` is ``(alpha^2 / 2) [[1, s i], [-s i, 1]]`` on ``(q_j, p_j)``
    and zero elsewhere. The drift gains ``Sigma Im(c^dag c)``, which on
    that block is ``s (alpha^2 / 2) [[0, 1], [-1, 0]]^2 = -s (alpha^2 / 2)
    I``. The diffusion gains ``Sigma Re(c^dag c) Sigma.T``, the identity
    block mapped onto itself: ``alpha^2 / 2`` at ``q_j`` and ``p_j``. So
    every channel adds to the two diagonals only, and ``np.bincount`` sums
    the channels per mode. ``alpha^2`` is ``gamma (nbar + 1)`` lowering
    and ``gamma nbar`` raising. Both diagonals are over ``(q_1..q_N,
    p_1..p_N)``.
    """
    if not channels:
        return None
    fields = np.array([(ch.mode, ch.gamma, ch.nbar, ch.kind == LOWERING)
                       for ch in channels], dtype=float).T
    modes = fields[0].astype(int)
    if modes.max() >= n:
        raise IndexError(f"mode index {modes.max()} out of range for {n} modes")
    half_rate = 0.5 * fields[1] * (fields[2] + fields[3])
    drift = np.bincount(modes, weights=(1.0 - 2.0 * fields[3]) * half_rate, minlength=n)
    diffusion = np.bincount(modes, weights=half_rate, minlength=n)
    return np.concatenate([drift, drift]), np.concatenate([diffusion, diffusion])


def _with_baths(a: np.ndarray, d: np.ndarray, baths) -> MomentSystem:
    """The moment system ``(a, d)`` with :func:`_bath_diagonals` ``baths`` added in place."""
    if baths is not None:
        diagonal = np.arange(a.shape[0])
        a[diagonal, diagonal] += baths[0]
        d[diagonal, diagonal] += baths[1]
    return MomentSystem(A=a, D=d)


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


def _metrics(system: MomentSystem) -> SteadyMetrics | None:
    try:
        v = steady_state(system)
    except (NotHurwitzError, InvalidCovarianceError):
        return None
    neg = log_negativity(v) if v.n_modes == 2 else None
    return SteadyMetrics(covariance=v, purity=purity(v), log_negativity=neg)


def robustness_report(realization: Realization, channels,
                      target: CovarianceMatrix) -> RobustnessReport:
    """Compare steady-state purity/entanglement with and without the design.

    The without branch keeps the same Hamiltonian matrix and drops only the
    designed coupling rows, leaving the thermal rows. Both systems take the
    channels as diagonal terms (:func:`augment`), summed once for both. The
    without branch of a passive diagonal design therefore splits into
    per-mode 2 x 2 blocks, which :func:`steady_state` solves in closed
    form; a mode with no bath leaves it without a steady state (``None``).
    """
    g = realization.G
    baths = _bath_diagonals(list(channels), realization.n_modes)
    with_metrics = _metrics(_with_baths(*_moment_matrices(g, realization.C), baths))
    without_metrics = None
    if baths is not None:
        # no coupling rows: the drift is Sigma G and the diffusion the baths' alone
        a = symplectic_form(realization.n_modes) @ g
        without_metrics = _metrics(_with_baths(a, np.zeros_like(a), baths))
    distance = None
    if with_metrics is not None:
        distance = max_abs(with_metrics.covariance.V - target.V)
    return RobustnessReport(
        with_coupling=with_metrics,
        without_coupling=without_metrics,
        target_distance=distance,
    )
