"""Command-line surface.

Commands: ``analyze``, ``feasible``, ``synthesize``, ``verify``,
``simulate``, ``thermal``. Each ``cmd_*`` maps parsed arguments to a
``(report, exit_code)`` pair and writes nothing to stdout or stderr;
``main`` emits the report and turns a ``GsynthError`` into one
``error:`` line and its exit code. Reports are JSON (or flat CSV
key/value rows with ``--format csv``); trajectories are always CSV.
Exit codes are stable: 0 success, 1 I/O, parse or usage error,
2 infeasible target, 3 impure input, 4 unstable system. ``--tol``
overrides the ``GSYNTH_TOL`` environment variable, which overrides the
built-in default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import build_moment_system, evolve, verify_generation
from .errors import (
    GsynthError,
    InfeasibleStateError,
    InvalidCovarianceError,
    MatrixFileError,
    NotHurwitzError,
    NotPureStateError,
)
from .fileio import (
    file_digest,
    load_realization,
    load_state_file,
    save_realization,
    write_text,
)
from .gaussian import (
    CovarianceMatrix,
    GraphMatrix,
    factor_covariance,
    graph_to_covariance,
    log_negativity,
    purity,
)
from .noise import _channel_rows, bath_channels, robustness_report
from .numerics import DEFAULT_TOL, is_hurwitz
from .structure import decompose
from .synthesis import synthesize

EXIT_OK = 0
EXIT_IO = 1
EXIT_INFEASIBLE = 2
EXIT_IMPURE = 3
EXIT_UNSTABLE = 4


def _nonnegative(value: float, name: str) -> float:
    if not (np.isfinite(value) and value >= 0.0):
        raise MatrixFileError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _resolve_tol(args) -> float:
    if args.tol is not None:
        return _nonnegative(args.tol, "--tol")
    env = os.environ.get("GSYNTH_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise MatrixFileError(f"GSYNTH_TOL is not a number: {env!r}")
        return _nonnegative(value, "GSYNTH_TOL")
    return DEFAULT_TOL


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return _jsonable([[v for v in row] for row in np.atleast_2d(value)])
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.bool_, np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    else:
        rows.append((prefix, json.dumps(value)))


def _emit(report: dict, fmt: str) -> None:
    payload = _jsonable(report)
    if fmt == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", payload, rows)
        sys.stdout.write("key,value\n")
        for key, val in rows:
            sys.stdout.write(f"{key},{val}\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _input_stanza(role_paths: dict) -> dict:
    return {
        role: {"path": str(p), "sha256": file_digest(p)}
        for role, p in role_paths.items()
    }


def _as_graph(state, tol: float) -> GraphMatrix:
    if isinstance(state, GraphMatrix):
        return state
    return factor_covariance(state, tol)


def _as_covariance(state) -> CovarianceMatrix:
    if isinstance(state, GraphMatrix):
        return graph_to_covariance(state)
    return state


def _certificate_stanza(dec) -> dict:
    stanza = {
        "feasible": dec.feasible,
        "reason": dec.certificate.reason,
    }
    if dec.feasible:
        stanza["permutation"] = list(dec.permutation.image)
        stanza["blocks"] = [
            {"tag": blk.tag, "entries": _jsonable(blk.block)} for blk in dec.blocks
        ]
    return stanza


def _constraint_flags(constraints) -> dict:
    return {
        "passive_diagonal": constraints.passive_diagonal,
        "single_channel": constraints.single_channel,
        "rank_condition": constraints.rank_condition,
    }


def cmd_analyze(args) -> tuple[dict, int]:
    tol = _resolve_tol(args)
    state = load_state_file(args.state)
    cov = _as_covariance(state)
    pure = cov.is_pure(tol)
    report = {
        "command": "analyze",
        "inputs": _input_stanza({"state": args.state}),
        "modes": cov.n_modes,
        "purity": purity(cov),
        "pure": pure,
        "graph": None,
        "log_negativity": None,
    }
    if pure:
        graph = _as_graph(state, tol)
        report["graph"] = {"X": graph.X, "Y": graph.Y}
    if cov.n_modes == 2:
        report["log_negativity"] = log_negativity(cov)
    return report, EXIT_OK


def _certified(args) -> tuple[dict, GraphMatrix, float]:
    """Load the state, decompose its graph and start the report with the certificate."""
    tol = _resolve_tol(args)
    graph = _as_graph(load_state_file(args.state), tol)
    report = {
        "command": args.command,
        "inputs": _input_stanza({"state": args.state}),
        "modes": graph.n_modes,
        "certificate": _certificate_stanza(decompose(graph, tol)),
    }
    return report, graph, tol


def cmd_feasible(args) -> tuple[dict, int]:
    report, _, _ = _certified(args)
    return report, EXIT_OK if report["certificate"]["feasible"] else EXIT_INFEASIBLE


def cmd_synthesize(args) -> tuple[dict, int]:
    report, graph, tol = _certified(args)
    if not report["certificate"]["feasible"]:
        return report, EXIT_INFEASIBLE

    realization = synthesize(graph, tol)
    check = verify_generation(realization, graph_to_covariance(graph), constraint_tol=tol)
    out = Path(args.output) if args.output else Path(args.state).with_suffix(".realization.json")
    save_realization(out, realization)
    report["realization"] = {
        "path": str(out),
        "channels": realization.n_channels,
        "R": realization.R,
        "Gamma": realization.Gamma,
        "P": realization.P,
        "G": realization.G,
        "C": realization.C,
    }
    report["metrics"] = {
        "hurwitz": check.hurwitz,
        "lyapunov_residual": check.lyapunov_residual,
        "steady_state_max_error": check.max_error,
        "steady_purity": check.steady_purity,
        "constraints": _constraint_flags(check.constraints),
    }
    report["violations"] = list(check.constraints.violations)
    return report, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    tol = _resolve_tol(args)
    target_tol = _nonnegative(args.target_tol, "--target-tol")
    realization, noise_rows = load_realization(args.realization)
    target = _as_covariance(load_state_file(args.target))
    check = verify_generation(realization, target, tol=target_tol, extra_rows=noise_rows,
                              constraint_tol=tol)
    report = {
        "command": "verify",
        "inputs": _input_stanza({"realization": args.realization, "target": args.target}),
        "hurwitz": check.hurwitz,
        "lyapunov_residual": check.lyapunov_residual,
        "max_error": check.max_error,
        "steady_purity": check.steady_purity,
        "generates_target": check.generates_target,
        "constraints": _constraint_flags(check.constraints),
        "violations": list(check.constraints.violations),
    }
    return report, EXIT_OK


def cmd_simulate(args) -> tuple[str, int]:
    """Return the trajectory as CSV text, or "" when ``-o`` writes it to a file."""
    if args.steps < 1:
        raise MatrixFileError(f"--steps must be at least 1, got {args.steps}")
    t_max = _nonnegative(args.t_max, "--t-max")
    realization, noise_rows = load_realization(args.realization)
    system = build_moment_system(realization.G, np.vstack([realization.C, noise_rows]))
    if not is_hurwitz(system.A) and not args.allow_unstable:
        raise NotHurwitzError("system is not Hurwitz; pass --allow-unstable to integrate anyway")
    if args.v0:
        v0 = _as_covariance(load_state_file(args.v0))
        if v0.n_modes != realization.n_modes:
            raise MatrixFileError(
                f"initial state has {v0.n_modes} modes, realization has {realization.n_modes}"
            )
    else:
        v0 = CovarianceMatrix.vacuum(realization.n_modes)
    times = np.linspace(0.0, t_max, args.steps)
    trajectory = evolve(system, v0, times)

    n2 = 2 * realization.n_modes
    header = ["t"]
    header += [f"V_{i}_{j}" for i in range(n2) for j in range(i, n2)]
    header += ["purity"]
    lines = [",".join(header)]
    for k, t in enumerate(trajectory.times):
        v = trajectory.covariances[k]
        cells = [f"{t:.9g}"]
        cells += [f"{v[i, j]:.12g}" for i in range(n2) for j in range(i, n2)]
        try:
            p = purity(v)
        except InvalidCovarianceError:
            p = float("nan")
        cells += [f"{p:.12g}"]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.output:
        write_text(args.output, text)
        return "", EXIT_OK
    return text, EXIT_OK


def _parse_modes(spec: str, n_modes: int) -> list[int]:
    if spec == "all":
        return list(range(n_modes))
    try:
        modes = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise MatrixFileError(f"--modes must be 'all' or a comma list of indices, got {spec!r}")
    for m in modes:
        if not 0 <= m < n_modes:
            raise MatrixFileError(f"mode index {m} out of range for {n_modes} modes")
    return modes


def _metrics_stanza(metrics) -> dict | None:
    if metrics is None:
        return None
    return {
        "purity": metrics.purity,
        "log_negativity": metrics.log_negativity,
        "covariance": metrics.covariance.V,
    }


def cmd_thermal(args) -> tuple[dict, int]:
    gamma = _nonnegative(args.gamma, "--gamma")
    nbar = _nonnegative(args.nbar, "--nbar")
    realization, _ = load_realization(args.realization)
    modes = _parse_modes(args.modes, realization.n_modes)
    channels = []
    for m in modes:
        channels.extend(bath_channels(m, gamma, nbar))
    if args.target:
        target = _as_covariance(load_state_file(args.target))
    else:
        target = graph_to_covariance(realization.graph)
    report_data = robustness_report(realization, channels, target)
    if args.emit:
        save_realization(args.emit, realization,
                         noise_rows=_channel_rows(channels, realization.n_modes))
    inputs = {"realization": args.realization}
    if args.target:
        inputs["target"] = args.target
    report = {
        "command": "thermal",
        "inputs": _input_stanza(inputs),
        "gamma": gamma,
        "nbar": nbar,
        "modes": modes,
        "with_coupling": _metrics_stanza(report_data.with_coupling),
        "without_coupling": _metrics_stanza(report_data.without_coupling),
        "target_distance": report_data.target_distance,
    }
    if args.emit:
        report["emitted"] = str(args.emit)
    return report, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2 (the infeasible code)."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _add_common(sub) -> None:
    sub.add_argument("--tol", type=float, default=None,
                     help="structural tolerance (default: GSYNTH_TOL env var or 1e-9)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format (default json)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsynth",
        description="Decide, synthesize and verify dissipative preparations of pure "
                    "Gaussian states with a diagonal passive Hamiltonian and a single "
                    "engineered channel.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("analyze", help="purity, graph factorization and entanglement")
    p.add_argument("state", help="covariance or graph file")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = commands.add_parser("feasible", help="test the block-structure feasibility criterion")
    p.add_argument("state", help="covariance or graph file (pure state)")
    _add_common(p)
    p.set_defaults(func=cmd_feasible)

    p = commands.add_parser("synthesize", help="construct a preparing system for a pure state")
    p.add_argument("state", help="covariance or graph file (pure state)")
    p.add_argument("-o", "--output", default=None,
                   help="realization output path (default: <state>.realization.json)")
    _add_common(p)
    p.set_defaults(func=cmd_synthesize)

    p = commands.add_parser("verify", help="check a realization against a target state")
    p.add_argument("realization", help="realization file")
    p.add_argument("target", help="covariance or graph file")
    p.add_argument("--target-tol", type=float, default=1e-8,
                   help="tolerance for matching the target: the max-norm error may be "
                        "target-tol * max(1, max|V_target|) (default 1e-8)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("simulate", help="integrate the covariance dynamics to CSV")
    p.add_argument("realization", help="realization file")
    p.add_argument("--v0", default=None, help="initial state file (default: vacuum)")
    p.add_argument("--t-max", type=float, default=10.0, help="final time (default 10)")
    p.add_argument("--steps", type=int, default=201, help="number of samples (default 201)")
    p.add_argument("--allow-unstable", action="store_true",
                   help="integrate even if the drift is not Hurwitz")
    p.add_argument("-o", "--output", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_simulate, tol=None, format="csv")

    p = commands.add_parser("thermal", help="robustness report under thermal noise")
    p.add_argument("realization", help="realization file")
    p.add_argument("--gamma", type=float, required=True, help="bath damping rate")
    p.add_argument("--nbar", type=float, required=True, help="bath thermal occupation")
    p.add_argument("--modes", default="all",
                   help="comma list of mode indices to attach baths to (default all)")
    p.add_argument("--target", default=None,
                   help="target state file (default: the realization's own target)")
    p.add_argument("--emit", default=None,
                   help="write the thermally augmented realization to this path")
    _add_common(p)
    p.set_defaults(func=cmd_thermal)

    return parser


# The first class in an error's MRO that is listed here gives its exit code.
_EXIT_CODES = {
    MatrixFileError: EXIT_IO,
    NotPureStateError: EXIT_IMPURE,
    InfeasibleStateError: EXIT_INFEASIBLE,
    NotHurwitzError: EXIT_UNSTABLE,
    GsynthError: EXIT_IO,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
    except GsynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
    if isinstance(report, str):
        sys.stdout.write(report)
    else:
        _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
