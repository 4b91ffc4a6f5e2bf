"""Seeded input generator for the benchmark workloads.

Every state is drawn at an exact mode count N and carries its true
feasibility, fixed by how it was built rather than by asking the program.
Blocks come from the same distributions as the test suite's
``random_phi_block`` and ``random_lambda_scalar``. No drawn input is
filtered out afterwards, so a defect that a drawn input triggers shows up
as a failure instead of being hidden.

Three kinds of state are drawn:

* ``feasible`` - N // 2 coupled pairs plus one lone scalar when N is odd,
  with the modes relabeled at random;
* ``off-family`` - the same construction with one pair moved off the
  ``z12**2 = z11**2 + 1`` family by a real shift of ``z12``. The imaginary
  part is untouched, so the state stays valid and pure, and the pair is
  infeasible whether or not the shifted coupling reads as zero;
* ``dense`` - a dense random graph matrix. Every off-diagonal entry is
  nonzero, so for N >= 3 the whole state is one component wider than two
  modes, and for N = 2 the unequal diagonal breaks the pair family.

This module uses NumPy only, so the inputs do not depend on the code
under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBLE = "feasible"
OFF_FAMILY = "off-family"
DENSE = "dense"


@dataclass(frozen=True)
class State:
    """One generated pure state: graph matrix ``z``, covariance ``v`` and its truth."""

    ident: str
    n: int
    kind: str
    z: np.ndarray
    v: np.ndarray

    @property
    def feasible(self) -> bool:
        return self.kind == FEASIBLE


def phi_block(rng: np.random.Generator) -> np.ndarray:
    """A random member of the coupled-pair family (test-suite distribution)."""
    while True:
        z11 = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.1, 2.0)
        z12 = (z11 ** 2 + 1.0) ** 0.5 * rng.choice([-1.0, 1.0])
        if abs(z12) > 1e-3:
            return np.array([[z11, z12], [z12, z11]])


def lambda_scalar(rng: np.random.Generator) -> complex:
    """A random lone scalar with positive imaginary part (test-suite distribution)."""
    return rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.1, 2.0)


def _block_graph(rng: np.random.Generator, n: int, shift: float = 0.0) -> np.ndarray:
    """Pairs plus an odd-N scalar, relabeled; ``shift`` is added to the first pair's coupling."""
    z = np.zeros((n, n), dtype=complex)
    for k in range(n // 2):
        z[2 * k:2 * k + 2, 2 * k:2 * k + 2] = phi_block(rng)
    if n % 2:
        z[n - 1, n - 1] = lambda_scalar(rng)
    z[0, 1] += shift
    z[1, 0] += shift
    perm = rng.permutation(n)
    return z[np.ix_(perm, perm)]


def feasible_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    return _block_graph(rng, n)


def off_family_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    shift = rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
    return _block_graph(rng, n, shift)


def dense_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n))
    m = rng.normal(size=(n, n))
    return 0.5 * (x + x.T) + 1j * (m @ m.T + 0.2 * np.eye(n))


def covariance(z: np.ndarray) -> np.ndarray:
    """Covariance over ``(q.., p..)`` of the pure state with graph matrix ``z``.

    ``V = (1/2) [[Y^-1, Y^-1 X], [X Y^-1, X Y^-1 X + Y]]``.
    """
    x, y = z.real, z.imag
    y_inv = np.linalg.inv(y)
    v = 0.5 * np.block([[y_inv, y_inv @ x], [x @ y_inv, x @ y_inv @ x + y]])
    return 0.5 * (v + v.T)


_DRAW = {FEASIBLE: feasible_graph, OFF_FAMILY: off_family_graph, DENSE: dense_graph}


def draw_state(rng: np.random.Generator, n: int, kind: str, ident: str) -> State:
    z = _DRAW[kind](rng, n)
    return State(ident=ident, n=n, kind=kind, z=z, v=covariance(z))


def state_payload(state: State, as_graph: bool) -> dict:
    """The JSON document of a state file in the format the CLI reads."""
    if as_graph:
        data = [[[float(c.real), float(c.imag)] for c in row] for row in state.z]
        return {"kind": "graph", "modes": state.n, "data": data}
    return {"kind": "covariance", "modes": state.n, "data": state.v.tolist()}
