"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and groups them
into cycles; a run executes whole cycles, so every run sees the same input
mix. ``op`` is the timed call into the program, ``check`` compares its
output with the references in :mod:`oracle`, and ``trace_pass`` repeats an
op with the package's public functions instrumented, outside op time.
Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gsynth as gs
import gsynth.cli
import gsynth.fileio
from gsynth.noise import bath_channels

import inputs
import oracle
from inputs import DENSE, FEASIBLE, OFF_FAMILY
from tracing import Tracer

#: Thermal bath attached to every mode where a workload adds noise.
GAMMA, NBAR = 0.01, 10.0

#: A drift whose spectral abscissa is above this is not Hurwitz, so
#: ``evolve`` integrates it with Runge-Kutta instead of its closed form.
HURWITZ_EDGE = -1e-9


class Workload:
    """Interface shared by the workloads; the in-process ones use the default ``trace_pass``."""

    name = ""
    #: Fewest whole cycles a run executes, whatever ``--seconds`` says.
    MIN_CYCLES = 1
    #: Fresh interpreters a traced run times importing ``gsynth.cli``.
    IMPORT_PROBES = 0

    def __init__(self, root: Path, child_env: dict):
        self.root = root
        self.child_env = child_env
        self.cycles: list[list] = []
        self.counts: Counter = Counter()

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """First calls along the ops' code paths; a failure here is counted later, in the loop."""
        for item in self.warm_items():
            with contextlib.suppress(Exception):
                self.op(item)

    def warm_items(self) -> list:
        return self.cycles[0][:3]

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        raise NotImplementedError

    def describe(self, item) -> str:
        return f"{item.ident} (N={item.n}, {item.kind})"

    def trace_pass(self, item, tracer: Tracer, start_ns: int, end_ns: int) -> tuple[int, int]:
        """Re-run the op instrumented; returns (untraced ns, traced ns) for the overhead."""
        with tracer.instrumented(), tracer.span("trace.pass") as record:
            self.op(item)
        return end_ns - start_ns, record[2] - record[1]

    def close(self) -> None:
        pass


class DesignSmall(Workload):
    """factor_covariance -> decompose, then synthesize -> verify_generation when feasible."""

    name = "design-small"
    SIZES = range(2, 7)
    MIX = ((FEASIBLE, 8), (OFF_FAMILY, 1), (DENSE, 1))
    POOL_CYCLES = 4

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.cycles = []
        for c in range(self.POOL_CYCLES):
            states = [inputs.draw_state(rng, n, kind, f"c{c}-n{n}-{kind}-{j}")
                      for n in self.SIZES for kind, count in self.MIX for j in range(count)]
            self.cycles.append([states[i] for i in rng.permutation(len(states))])

    def op(self, state):
        graph = gs.factor_covariance(gs.CovarianceMatrix(state.v))
        dec = gs.decompose(graph)
        if not dec.feasible:
            return graph, dec, None, None
        realization = gs.synthesize(graph)
        report = gs.verify_generation(realization, gs.graph_to_covariance(graph))
        return graph, dec, realization, report

    def check(self, state, out):
        graph, dec, realization, report = out
        self.counts["decompose"] += 1
        self.counts["decompose_infeasible"] += not dec.feasible
        if dec.feasible != state.feasible:
            return [f"certificate says feasible={dec.feasible} for a {state.kind} state"]
        if not state.feasible:
            try:
                gs.synthesize(graph)
            except gs.InfeasibleStateError:
                return []
            return ["synthesize accepted an infeasible state"]
        steady = report.steady_covariance
        problems = oracle.compare("steady state vs target", steady and steady.V, state.v)
        if not gs.verify_constraints(realization).all_ok:
            problems.append("verify_constraints reports a violation")
        return problems


class DesignLarge(Workload):
    """synthesize -> verify_generation -> robustness_report with a bath on every mode."""

    name = "design-large"
    # Three N=16 states for each N=32 one keep the median inside the N=16
    # cluster and the 90th percentile inside the N=32 cluster.
    # With at least two cycles a run has two N=32 ops among eight.
    SIZES = (16, 16, 16, 32)
    POOL_CYCLES = 2
    MIN_CYCLES = 2

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.channels = {n: [ch for m in range(n) for ch in bath_channels(m, GAMMA, NBAR)]
                         for n in set(self.SIZES)}
        self.cycles = [[inputs.draw_state(rng, n, FEASIBLE, f"c{c}-{i}-n{n}")
                        for i, n in enumerate(self.SIZES)] for c in range(self.POOL_CYCLES)]

    def warm_items(self):
        return self.cycles[0][:1]

    def op(self, state):
        graph = gs.GraphMatrix(state.z.real, state.z.imag)
        target = gs.CovarianceMatrix(state.v)
        realization = gs.synthesize(graph)
        report = gs.verify_generation(realization, target)
        robustness = gs.robustness_report(realization, self.channels[state.n], target)
        return realization, report, robustness

    def check(self, state, out):
        realization, report, robustness = out
        steady = report.steady_covariance
        problems = oracle.compare("steady state vs target", steady and steady.V, state.v)
        if not gs.verify_constraints(realization).all_ok:
            problems.append("verify_constraints reports a violation")
        rows = oracle.thermal_rows(state.n, GAMMA, NBAR)
        for label, c_rows, metrics in (
            ("thermal steady state with coupling", np.vstack([realization.C, rows]),
             robustness.with_coupling),
            ("thermal steady state without coupling", rows, robustness.without_coupling),
        ):
            a, d = oracle.moment_matrices(realization.G, c_rows)
            problems += oracle.steady_state_of(label, a, d, metrics and metrics.covariance.V)
        return problems


@dataclass(frozen=True)
class Flight:
    """One trajectory op: a system variant of a design, its start state and sample times."""

    ident: str
    n: int
    kind: str
    realization: object
    c_rows: np.ndarray
    v0: object
    times: np.ndarray
    sample: int
    rk4: bool


class Trajectory(Workload):
    """build the moment system of a design variant, then evolve 121 samples."""

    name = "trajectory"
    SIZES = (2, 4, 6)
    DESIGNS = 3
    POOL_CYCLES = 2
    T_STABLE = np.linspace(0.0, 60.0, 121)
    T_OFF = np.linspace(0.0, 6.0, 121)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.channels = {n: [ch for m in range(n) for ch in bath_channels(m, GAMMA, NBAR)]
                         for n in self.SIZES}
        self.cycles = []
        for c in range(self.POOL_CYCLES):
            flights = []
            for n in self.SIZES:
                vacuum = gs.CovarianceMatrix.vacuum(n)
                for j in range(self.DESIGNS):
                    state = inputs.draw_state(rng, n, FEASIBLE, f"c{c}-n{n}-{j}")
                    realization = gs.synthesize(gs.GraphMatrix(state.z.real, state.z.imag))
                    thermal = np.vstack([realization.C, oracle.thermal_rows(n, GAMMA, NBAR)])
                    variants = [("designed", realization.C, vacuum, self.T_STABLE),
                                ("thermal", thermal, vacuum, self.T_STABLE)]
                    if j == 0:
                        # The dissipator switched off leaves a purely rotating,
                        # non-Hurwitz drift; start from the target so it moves.
                        variants.append(("off", np.zeros((1, 2 * n)),
                                         gs.CovarianceMatrix(state.v), self.T_OFF))
                    for kind, c_rows, v0, times in variants:
                        a, _ = oracle.moment_matrices(realization.G, c_rows)
                        flights.append(Flight(
                            ident=f"{state.ident}-{kind}", n=n, kind=kind,
                            realization=realization, c_rows=c_rows, v0=v0, times=times,
                            sample=int(rng.integers(1, times.size)),
                            rk4=oracle.spectral_abscissa(a) > HURWITZ_EDGE))
            self.cycles.append([flights[i] for i in rng.permutation(len(flights))])

    def warm_items(self):
        return [flight for flight in self.cycles[0] if flight.n == 2]

    def op(self, flight):
        realization = flight.realization
        if flight.kind == "thermal":
            system = gs.augment(realization, self.channels[flight.n])
        else:
            system = gs.build_moment_system(realization.G, flight.c_rows)
        return gs.evolve(system, flight.v0, flight.times)

    def check(self, flight, traj):
        self.counts["evolve"] += 1
        self.counts["evolve_rk4"] += flight.rk4
        n2 = 2 * flight.n
        if traj.covariances.shape != (flight.times.size, n2, n2):
            return [f"trajectory has shape {traj.covariances.shape}"]
        a, d = oracle.moment_matrices(flight.realization.G, flight.c_rows)
        t = flight.times[flight.sample]
        reference = oracle.van_loan_covariance(a, d, flight.v0.V, t)
        return oracle.compare(f"V(t={t:g}) vs Van Loan reference",
                              traj.covariances[flight.sample], reference)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``args`` may hold ``{out}``, the output directory."""

    ident: str
    n: int
    kind: str
    command: str
    args: tuple
    expect_exit: int
    state: inputs.State

    def argv(self, out: Path) -> list[str]:
        return [self.command] + [a.format(out=out) for a in self.args]


class CliCold(Workload):
    """Each op is a fresh ``python -m gsynth.cli`` process."""

    name = "cli-cold"
    IMPORT_PROBES = 8
    SIZES = (2, 4, 8)
    COMMANDS = ("analyze", "feasible", "synthesize", "verify", "simulate", "thermal")
    STEPS = 121
    T_MAX = 60.0

    def setup(self, seed):
        self.work = self.root / "benchmarks" / "out" / f"work-{self.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "proc").mkdir(parents=True)
        (self.work / "inproc").mkdir()
        rng = np.random.default_rng(seed)
        files, self.designs = {}, {}
        for n in self.SIZES:
            good = inputs.draw_state(rng, n, FEASIBLE, f"n{n}-feasible")
            bad = inputs.draw_state(rng, n, DENSE if n == 4 else OFF_FAMILY, f"n{n}-infeasible")
            good_path, bad_path = self.work / f"good-{n}.json", self.work / f"bad-{n}.json"
            good_path.write_text(json.dumps(inputs.state_payload(good, as_graph=False)))
            bad_path.write_text(json.dumps(inputs.state_payload(bad, as_graph=True)))
            realization = gs.synthesize(gs.GraphMatrix(good.z.real, good.z.imag))
            real_path = self.work / f"design-{n}.json"
            gsynth.fileio.save_realization(real_path, realization)
            files[n] = (good, bad, str(good_path), str(bad_path), str(real_path))
            self.designs[n] = realization

        def plan(n):
            good, bad, good_path, bad_path, real_path = files[n]
            steps, t_max = str(self.STEPS), str(self.T_MAX)
            return [
                ("analyze", good, (good_path,), 0),
                ("feasible", good, (good_path,), 0),
                ("feasible", bad, (bad_path,), 2),
                ("synthesize", good, (good_path, "-o", f"{{out}}/synth-{n}.json"), 0),
                ("synthesize", bad, (bad_path, "-o", f"{{out}}/never-{n}.json"), 2),
                ("verify", good, (real_path, good_path), 0),
                ("simulate", good, (real_path, "--steps", steps, "--t-max", t_max), 0),
                ("thermal", good, (real_path, "--gamma", str(GAMMA), "--nbar", str(NBAR),
                                   "--emit", f"{{out}}/thermal-{n}.json"), 0),
            ]

        # Command i of cycle k runs at size SIZES[(i + k) % 3], so each cycle
        # mixes the sizes alike and three cycles cover every pairing.
        plans = {n: plan(n) for n in self.SIZES}
        self.cycles = []
        for k in range(len(self.SIZES)):
            cycle = []
            for i in range(len(plans[self.SIZES[0]])):
                n = self.SIZES[(i + k) % len(self.SIZES)]
                command, state, args, code = plans[n][i]
                cycle.append(Command(ident=f"{command}-{state.ident}", n=n, kind=state.kind,
                                     command=command, args=args, expect_exit=code, state=state))
            self.cycles.append(cycle)

    def warm_items(self):
        return self.cycles[0][:1]

    def op(self, item):
        return subprocess.run(
            [sys.executable, "-m", "gsynth.cli", *item.argv(self.work / "proc")],
            cwd=self.root, env=self.child_env, capture_output=True, text=True, timeout=150,
        )

    def check(self, item, proc):
        if item.command in ("feasible", "synthesize"):
            self.counts["decompose"] += 1
            self.counts["decompose_infeasible"] += proc.returncode == 2
        if item.command == "simulate":
            self.counts["evolve"] += 1
        if proc.returncode != item.expect_exit:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit code {proc.returncode}, expected {item.expect_exit}: {tail[0]}"]
        return getattr(self, f"_check_{item.command}")(item, proc.stdout)

    def _check_analyze(self, item, stdout):
        report = json.loads(stdout)
        if report["pure"] is not True or abs(report["purity"] - 1.0) > 1e-6:
            return [f"pure state reported as purity {report['purity']}"]
        return []

    def _check_feasible(self, item, stdout):
        verdict = json.loads(stdout)["certificate"]["feasible"]
        if verdict != item.state.feasible:
            return [f"certificate says feasible={verdict} for a {item.kind} state"]
        return []

    def _check_synthesize(self, item, stdout):
        problems = self._check_feasible(item, stdout)
        if problems or not item.state.feasible:
            return problems
        report = json.loads(stdout)
        problems += self._check_match(report["metrics"]["steady_state_max_error"],
                                      report["metrics"]["constraints"], item)
        design = json.loads(Path(report["realization"]["path"]).read_text())
        c = np.array(design["C"], dtype=float)
        a, d = oracle.moment_matrices(design["G"], c[..., 0] + 1j * c[..., 1])
        return problems + oracle.steady_state_of("written design vs target", a, d, item.state.v)

    def _check_verify(self, item, stdout):
        report = json.loads(stdout)
        if report["hurwitz"] is not True:
            return ["design reported unstable"]
        return self._check_match(report["max_error"], report["constraints"], item)

    @staticmethod
    def _check_match(max_error, constraints, item):
        problems = []
        relative = max_error / np.max(np.abs(item.state.v))
        if relative > oracle.REL_TOL:
            problems.append(f"steady state off target by {relative:.3e} relative")
        if not all(constraints.values()):
            problems.append(f"constraint flags {constraints}")
        return problems

    def _check_simulate(self, item, stdout):
        lines = stdout.splitlines()
        n2 = 2 * item.n
        header = ["t"] + [f"V_{i}_{j}" for i in range(n2) for j in range(i, n2)] + ["purity"]
        if lines[0] != ",".join(header):
            return ["CSV header differs from the documented columns"]
        if len(lines) != self.STEPS + 1:
            return [f"CSV has {len(lines) - 1} rows, expected {self.STEPS}"]
        last = [float(x) for x in lines[-1].split(",")]
        design = self.designs[item.n]
        a, d = oracle.moment_matrices(design.G, design.C)
        reference = oracle.van_loan_covariance(a, d, 0.5 * np.eye(n2), self.T_MAX)
        upper = np.triu_indices(n2)
        return oracle.compare(f"CSV V(t={self.T_MAX:g}) vs Van Loan reference",
                              np.array(last[1:-1]), reference[upper])

    def _check_thermal(self, item, stdout):
        report = json.loads(stdout)
        emitted = json.loads(Path(report["emitted"]).read_text())
        problems = []
        if len(emitted.get("C_noise", [])) != 2 * item.n:
            problems.append("emitted realization lacks one bath row pair per mode")
        with_coupling = report["with_coupling"]
        if with_coupling is None or not 0.0 < with_coupling["purity"] <= 1.0:
            return problems + [f"with-coupling branch {with_coupling and with_coupling['purity']}"]
        design = self.designs[item.n]
        rows = np.vstack([design.C, oracle.thermal_rows(item.n, GAMMA, NBAR)])
        a, d = oracle.moment_matrices(design.G, rows)
        return problems + oracle.steady_state_of(
            "thermal steady state with coupling", a, d, np.array(with_coupling["covariance"]))

    def describe(self, item):
        return f"{item.ident}: gsynth {' '.join(item.argv(Path('<out>')))}"

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return gsynth.cli.main(argv)

    def trace_pass(self, item, tracer, start_ns, end_ns):
        """Fresh-process span, then in-process ``main(argv)`` plain and instrumented."""
        tracer.add(f"cli.{item.command}", start_ns, end_ns)
        argv = item.argv(self.work / "inproc")
        with tracer.span(f"cli.{item.command}_work") as plain:
            code = self._main(argv)
        with tracer.instrumented(), tracer.span("trace.pass") as traced:
            traced_code = self._main(argv)
        if item.expect_exit != code or item.expect_exit != traced_code:
            raise RuntimeError(f"in-process exit codes {code}, {traced_code}")
        return plain[2] - plain[1], traced[2] - traced[1]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DesignSmall, DesignLarge, Trajectory, CliCold)}
