"""On-disk formats for states and realizations.

Everything is JSON with a ``kind`` discriminator. Complex numbers are
always ``[re, im]`` pairs, never strings. Covariance data is a 2N x 2N
real matrix; graph data is an N x N matrix of pairs. Realization files
carry the full design plus the graph factors, and optionally parasitic
thermal rows under ``C_noise``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import GsynthError, MatrixFileError
from .gaussian import CovarianceMatrix, GraphMatrix
from .synthesis import Realization

FORMAT_VERSION = 1


def file_digest(path) -> str:
    """Hex SHA-256 of a file's bytes, for report provenance.

    ``hashlib`` is imported here, by the commands that report a digest, so
    importing the command line does not load it.
    """
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _complex_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _pairs_to_complex(data, context: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{context}: entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise MatrixFileError(f"{context}: entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError(f"{context}: matrix has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _real_matrix(data, context: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{context}: expected a real matrix") from exc
    if arr.ndim != 2:
        raise MatrixFileError(f"{context}: expected a 2-D matrix, got {arr.ndim} dimensions")
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError(f"{context}: matrix has non-finite entries")
    return arr


def _load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise MatrixFileError(f"{path}: top level must be an object")
    return payload


def _require(payload: dict, key: str, path) -> object:
    if key not in payload:
        raise MatrixFileError(f"{path}: missing required key {key!r}")
    return payload[key]


def _require_modes(payload: dict, path) -> int:
    modes = _require(payload, "modes", path)
    if type(modes) is not int or modes < 1:  # JSON true is a bool, and bool is an int
        raise MatrixFileError(f"{path}: 'modes' must be a positive integer")
    return modes


def write_text(path, text: str) -> None:
    """Write a file; an unwritable path is a ``MatrixFileError``, as an unreadable one is."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def _from_interleaved(matrix: np.ndarray) -> np.ndarray:
    """Reorder a covariance from (q1, p1, q2, p2, ...) to (q.., p..)."""
    n2 = matrix.shape[0]
    idx = list(range(0, n2, 2)) + list(range(1, n2, 2))
    return matrix[np.ix_(idx, idx)]


def load_state_file(path) -> CovarianceMatrix | GraphMatrix:
    """Load a covariance or graph file, validating shape and symmetry.

    Covariance files may declare ``"ordering": "interleaved"`` when their
    rows alternate position and momentum per mode; they are converted to
    the internal all-q-then-all-p ordering on load.
    """
    payload = _load_json(path)
    kind = _require(payload, "kind", path)
    modes = _require_modes(payload, path)
    data = _require(payload, "data", path)
    ordering = payload.get("ordering", "blocks")
    if ordering not in ("blocks", "interleaved"):
        raise MatrixFileError(
            f"{path}: ordering must be 'blocks' or 'interleaved', got {ordering!r}"
        )
    if kind == "covariance":
        matrix = _real_matrix(data, str(path))
        if matrix.shape != (2 * modes, 2 * modes):
            raise MatrixFileError(
                f"{path}: covariance for {modes} modes must be {2 * modes}x{2 * modes}, "
                f"got {matrix.shape}"
            )
        if ordering == "interleaved":
            matrix = _from_interleaved(matrix)
        try:
            return CovarianceMatrix(matrix)
        except (GsynthError, ValueError) as exc:
            raise MatrixFileError(f"{path}: {exc}") from exc
    if kind == "graph":
        if ordering != "blocks":
            raise MatrixFileError(f"{path}: graph files have no quadrature ordering")
        z = _pairs_to_complex(data, str(path))
        if z.shape != (modes, modes):
            raise MatrixFileError(
                f"{path}: graph matrix for {modes} modes must be {modes}x{modes}, got {z.shape}"
            )
        try:
            return GraphMatrix(z.real, z.imag)
        except (GsynthError, ValueError) as exc:
            raise MatrixFileError(f"{path}: {exc}") from exc
    raise MatrixFileError(f"{path}: unknown kind {kind!r}; expected 'covariance' or 'graph'")


def _save(path, kind: str, modes: int, **fields) -> None:
    payload = {"format_version": FORMAT_VERSION, "kind": kind, "modes": modes, **fields}
    write_text(path, json.dumps(payload, indent=1) + "\n")


def save_covariance(path, cov: CovarianceMatrix) -> None:
    _save(path, "covariance", cov.n_modes, data=cov.V.tolist())


def save_graph(path, graph: GraphMatrix) -> None:
    _save(path, "graph", graph.n_modes, data=_complex_to_pairs(graph.Z))


def save_realization(path, realization: Realization, noise_rows=None) -> None:
    """Write a design to disk; optional parasitic rows go under ``C_noise``."""
    fields = {
        "channels": realization.n_channels,
        "R": realization.R.tolist(),
        "Gamma": realization.Gamma.tolist(),
        "P": _complex_to_pairs(realization.P),
        "G": realization.G.tolist(),
        "C": _complex_to_pairs(realization.C),
        "X": realization.graph.X.tolist(),
        "Y": realization.graph.Y.tolist(),
    }
    if noise_rows is not None and len(noise_rows):
        fields["C_noise"] = _complex_to_pairs(np.atleast_2d(noise_rows))
    _save(path, "realization", realization.n_modes, **fields)


def load_realization(path) -> tuple[Realization, np.ndarray]:
    """Load a realization file; returns the design and any parasitic rows."""
    payload = _load_json(path)
    kind = _require(payload, "kind", path)
    if kind != "realization":
        raise MatrixFileError(f"{path}: expected kind 'realization', got {kind!r}")
    modes = _require_modes(payload, path)
    try:
        realization = Realization(
            R=_real_matrix(_require(payload, "R", path), f"{path}: R"),
            Gamma=_real_matrix(_require(payload, "Gamma", path), f"{path}: Gamma"),
            P=_pairs_to_complex(_require(payload, "P", path), f"{path}: P"),
            G=_real_matrix(_require(payload, "G", path), f"{path}: G"),
            C=_pairs_to_complex(_require(payload, "C", path), f"{path}: C"),
            graph=GraphMatrix(
                _real_matrix(_require(payload, "X", path), f"{path}: X"),
                _real_matrix(_require(payload, "Y", path), f"{path}: Y"),
            ),
        )
    except (GsynthError, ValueError) as exc:
        if isinstance(exc, MatrixFileError):
            raise
        raise MatrixFileError(f"{path}: {exc}") from exc
    if realization.n_modes != modes:
        raise MatrixFileError(f"{path}: matrices are sized for {realization.n_modes} modes, "
                              f"but 'modes' says {modes}")
    if "C_noise" in payload:
        noise_rows = _pairs_to_complex(payload["C_noise"], f"{path}: C_noise")
        if noise_rows.ndim != 2 or noise_rows.shape[1] != 2 * modes:
            raise MatrixFileError(f"{path}: C_noise rows must have {2 * modes} columns")
    else:
        noise_rows = np.zeros((0, 2 * modes), dtype=complex)
    return realization, noise_rows
