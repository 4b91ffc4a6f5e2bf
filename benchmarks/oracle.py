"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls the program or reuses its tolerance tests. The moment
equations are rebuilt from ``(G, C)`` with ``D = Sigma Re(C^dag C) Sigma^T``,
a different (equivalent) form from the program's ``B B^dag / 2``, and
transient covariances come from one Van Loan block exponential instead of
per-sample propagators or Runge-Kutta. Every comparison is relative to
the scale of the reference, so it stays meaningful for strongly squeezed
states, where an absolute test such as ``max|error| <= 1e-8`` is not.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

#: Relative tolerance for every matrix comparison. Correct results at the
#: sizes the workloads use agree to about 1e-12 relative; a wrong design or
#: a wrong propagator misses by many orders more than this.
REL_TOL = 1e-8


def sigma(n: int) -> np.ndarray:
    """Symplectic form ``[[0, I], [-I, 0]]`` over ``(q.., p..)``."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def moment_matrices(g, c_rows) -> tuple[np.ndarray, np.ndarray]:
    """Drift ``A = Sigma (G + Im(C^dag C))`` and diffusion ``D = Sigma Re(C^dag C) Sigma^T``."""
    g = np.asarray(g, dtype=float)
    c = np.atleast_2d(np.asarray(c_rows, dtype=complex))
    s = sigma(g.shape[0] // 2)
    cc = c.conj().T @ c
    return s @ (g + cc.imag), s @ cc.real @ s.T


def thermal_rows(n: int, gamma: float, nbar: float) -> np.ndarray:
    """Coupling rows of a thermal bath on every mode: raising then lowering per mode.

    With ``a_j = (q_j + i p_j) / sqrt(2)`` a lowering channel of amplitude
    ``sqrt(gamma (nbar + 1))`` couples to ``a_j`` and a raising channel of
    amplitude ``sqrt(gamma nbar)`` to its adjoint.
    """
    rows = []
    for mode in range(n):
        for amp, sign in ((np.sqrt(gamma * nbar), -1.0), (np.sqrt(gamma * (nbar + 1.0)), 1.0)):
            row = np.zeros(2 * n, dtype=complex)
            row[mode] = amp / np.sqrt(2.0)
            row[n + mode] = sign * 1j * amp / np.sqrt(2.0)
            rows.append(row)
    return np.array(rows)


def spectral_abscissa(a) -> float:
    return float(np.linalg.eigvals(a).real.max())


def van_loan_covariance(a, d, v0, t: float) -> np.ndarray:
    """``V(t)`` solving ``dV/dt = A V + V A^T + D`` from ``V(0) = v0``.

    ``expm([[-A, D], [0, A^T]] h) = [[., F12], [0, F22]]`` gives
    ``Phi = exp(A h) = F22^T`` and ``Q = int_0^h exp(A s) D exp(A^T s) ds =
    F22^T F12``. The ``exp(-A h)`` block overflows for long spans, so the
    exponential is taken over ``h = t / 2**k`` with ``||A h|| <= 1/2`` and
    doubled ``k`` times by ``(Phi, Q) -> (Phi Phi, Phi Q Phi^T + Q)``.
    Exact for stable and unstable drift alike.
    """
    n = a.shape[0]
    span = np.linalg.norm(a, 1) * t
    k = int(np.ceil(np.log2(span / 0.5))) if span > 0.5 else 0
    h = t / 2.0 ** k
    e = scipy.linalg.expm(np.block([[-a, d], [np.zeros_like(a), a.T]]) * h)
    phi = e[n:, n:].T
    q = phi @ e[:n, n:]
    for _ in range(k):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    v = phi @ v0 @ phi.T + q
    return 0.5 * (v + v.T)


def rel_error(actual, reference) -> float:
    """Max-norm error relative to the max-norm of the reference."""
    reference = np.asarray(reference)
    return float(np.max(np.abs(np.asarray(actual) - reference)) / np.max(np.abs(reference)))


def lyapunov_residual(a, d, v) -> float:
    """``||A V + V A^T + D|| / (2 ||A|| ||V|| + ||D||)`` in the Frobenius norm."""
    r = a @ v + v @ a.T + d
    scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(v) + np.linalg.norm(d)
    return float(np.linalg.norm(r) / scale)


def compare(label: str, actual, reference) -> list[str]:
    """A mismatch message when ``actual`` is off ``reference`` by more than ``REL_TOL``."""
    if actual is None:
        return [f"{label}: missing"]
    err = rel_error(actual, reference)
    return [] if err <= REL_TOL else [f"{label}: relative error {err:.3e} > {REL_TOL:.0e}"]


def steady_state_of(label: str, a, d, v) -> list[str]:
    """Mismatches unless ``v`` solves the stable Lyapunov equation of ``(a, d)``."""
    if v is None:
        return [f"{label}: missing"]
    problems = []
    if spectral_abscissa(a) >= 0.0:
        problems.append(f"{label}: drift is not stable")
    res = lyapunov_residual(a, d, v)
    if res > REL_TOL:
        problems.append(f"{label}: Lyapunov residual {res:.3e} > {REL_TOL:.0e}")
    return problems
