"""Seeded workloads: input generators, the call each op makes, and its check.

A run is a whole number of rounds. Every round of a workload holds the same
op kinds and the same multiset of sizes (sample counts, grid sizes), so the
per-run order statistics of op time fall on the same kind of op whatever
the seed; the seed draws everything else: lengths, designs, search windows,
sweep windows, ratios, and which template gets which sample count. A run
starts rounds until its op time, in reference seconds (run.calibrate),
reaches --seconds. Rounds take 6-8 reference seconds at the commit that
added the benchmark, about two thirds of an 11 s run, so a run holds two.
The program receives only the generated values.
"""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import qasfg

import oracle

STEPS = 20000  # the config default of simulation.steps
GRID_N = 4001  # the config default of design.grid_N
L_MIN, L_MAX = 0.2e-3, 20e-3  # crystal lengths, m
KL_MIN = 1.05 * np.pi  # lower edge of the program's default kappa*L window


@dataclass
class Op:
    kind: str
    params: dict
    points: int = 0  # propagated sweep points (design: 1 per design)
    key: tuple | None = None  # dimensionless optimisation problem, if any


@dataclass
class Checked:
    ok: bool
    reason: str = ""
    max_abs_deta: float = 0.0
    bytes_written: int = 0


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


class Workload:
    """Base: a seeded, closed-loop stream of rounds of ops."""

    name = ""
    calibrated = True  # times scale with the calibration kernel (run.calibrate)
    tracer_dir = None  # set during a traced run of a workload with child processes

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 1])

    def setup(self):
        """Input assembly a run needs before its first op."""

    def rounds(self):
        """Endless stream of rounds, each a list of ops."""
        while True:
            yield self.make_round()

    def warmup_op(self):
        """The smallest op of a round drawn from its own seed stream, run
        once before timing starts."""
        saved, self.rng = self.rng, np.random.default_rng([self.seed, 2])
        try:
            return min(self.make_round(), key=lambda op: op.points)
        finally:
            self.rng = saved

    def make_round(self):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def op_seconds(self, out, wall):
        """The timed samples one op contributes."""
        return [wall]

    def child_spans(self, out):
        """Span lists recorded by the child processes of a traced op."""
        return []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cli_metrics(self, records):
        """Per-command figures of a workload that runs the command line."""
        return {"cli.import_s": 0.0, "cli.bytes_written": 0.0}

    def close(self):
        """Release what the workload created on disk."""


class DesignWorkload(Workload):
    """build_design over lengths, both targets, three grid sizes and, for
    a third of the designs, an explicit kappa search window."""

    name = "design"
    # 18 designs a round: each (target, grid_N) pair twice with the default
    # window and once with an explicit one.
    TEMPLATES = tuple((target, grid_n, explicit) for explicit in (False, True, False)
                      for target in ("deltak", "kappa") for grid_n in (3001, 4001, 5001))

    def make_round(self):
        return [self.make(*t) for t in self.TEMPLATES]

    def make(self, target, grid_n, explicit):
        length = _log_uniform(self.rng, L_MIN, L_MAX)
        window = None
        key = (target, grid_n, "default")
        if explicit:
            kl = (float(self.rng.uniform(KL_MIN * 1.01, 5.5)),
                  float(self.rng.uniform(8.5, 11.0)))
            window = (kl[0] / length, kl[1] / length)
            key = (target, grid_n, kl)
        return Op("design", {"length": length, "target": target,
                             "grid_n": grid_n, "search_range": window},
                  points=1, key=key)

    def execute(self, op):
        p = op.params
        return qasfg.build_design(p["length"], p["target"], grid_n=p["grid_n"],
                                  search_range=p["search_range"])

    def check(self, op, design):
        p = op.params
        report = qasfg.boundary_check(design.angles, design.mismatch)
        if not report["all_ok"]:
            return Checked(False, "boundary check failed")
        qfun = qasfg.q_deltak if p["target"] == "deltak" else qasfg.q_kappa

        def q(kappa):
            return qfun(qasfg.angle_profiles(
                qasfg.TrajectorySpec(kappa, p["length"], p["grid_n"])))

        q0 = q(design.kappa)
        if not abs(q0 - design.q_value) <= 1e-12 * max(abs(q0), 1e-300):
            return Checked(False, "reported q differs from q at kappa*")
        # The golden section stops at a bracket narrower than 0.1 rad/m with
        # kappa* at its middle, so the true minimum lies within 0.05 rad/m.
        for nb in (design.kappa - 0.2, design.kappa + 0.2):
            if q(nb) < q0 * (1.0 - 1e-9):
                return Checked(False, f"q at kappa*={design.kappa} exceeds q at {nb}")
        eta = oracle.su2_eta(design.mismatch.z, design.mismatch.phi,
                             oracle.LAB_FRAME * design.kappa)[0]
        if not eta >= 1.0 - 1e-9:
            return Checked(False, f"oracle centre efficiency {eta} < 1 - 1e-9")
        return Checked(True)


def _design_pool(rng, count=4, grid_n=GRID_N):
    """Seeded (kappa*L, L, target) triples, assembled the way
    `qasfg sweep --design` loads a design file."""
    pool = []
    for i in range(count):
        length = _log_uniform(rng, L_MIN, L_MAX)
        kl = float(rng.uniform(5.5, 9.0))
        target = ("deltak", "kappa")[i % 2]
        pool.append(qasfg.assemble_design(kl / length, length, target, grid_n=grid_n))
    return pool


class SweepWorkload(Workload):
    """Undepleted validation sweeps on designs assembled in set-up."""

    name = "sweep"
    KINDS = ("bandwidth", "period", "pump") * 3
    SAMPLES = (5, 7, 9, 11, 13, 15, 17, 21, 25)  # dealt to KINDS in a seeded order
    LENGTHS = (3, 5)  # lengths of the two efficiency-vs-length ops

    def setup(self):
        self.designs = _design_pool(np.random.default_rng([self.seed, 3]))
        self.kappa_ref = {}

    def make_round(self):
        ops = [self.make(k, int(n)) for k, n in
               zip(self.KINDS, self.rng.permutation(self.SAMPLES))]
        ops += [self.make("length", int(n)) for n in self.rng.permutation(self.LENGTHS)]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def make(self, kind, n):
        d = int(self.rng.integers(len(self.designs)))
        if kind == "bandwidth":
            half = float(self.rng.uniform(0.1, 0.5))
            centre = float(self.rng.uniform(2.95, 3.05))
            p = {"lam_min": (centre - half) * 1e-6, "lam_max": (centre + half) * 1e-6}
        elif kind == "period":
            p = {"rel_min": float(self.rng.uniform(-0.20, -0.02)),
                 "rel_max": float(self.rng.uniform(0.02, 0.20))}
        elif kind == "pump":
            p = {"rel_min": float(self.rng.uniform(-0.25, -0.02)),
                 "rel_max": float(self.rng.uniform(0.02, 0.25))}
        else:
            p = {"min_mm": _log_uniform(self.rng, 0.2, 1.0),
                 "max_mm": _log_uniform(self.rng, 5.0, 20.0),
                 "target": self.designs[d].target}
            return Op(kind, dict(p, samples=n), points=2 * n,
                      key=(p["target"], GRID_N, "default"))
        return Op(kind, dict(p, samples=n, design=d), points=n)

    def execute(self, op):
        p = dict(op.params)
        if op.kind == "length":
            lengths = np.geomspace(p["min_mm"] * 1e-3, p["max_mm"] * 1e-3, p["samples"])
            return qasfg.efficiency_vs_length(target=p["target"], lengths=lengths,
                                              grid_n=GRID_N, steps=STEPS, workers=1)
        design = self.designs[p.pop("design")]
        sweep = {"bandwidth": qasfg.bandwidth_sweep,
                 "period": qasfg.robustness_period_sweep,
                 "pump": qasfg.robustness_pump_sweep}[op.kind]
        return sweep(design, steps=STEPS, workers=1, **p)

    def _reference_kappa(self, target):
        """kappa* of the 1 mm reference design the length sweep scales from."""
        if target not in self.kappa_ref:
            self.kappa_ref[target] = qasfg.optimize_kappa(1e-3, target=target).kappa_opt
        return self.kappa_ref[target]

    def check(self, op, out):
        p = op.params
        if op.kind == "length":
            lengths = np.geomspace(p["min_mm"] * 1e-3, p["max_mm"] * 1e-3, p["samples"])
            k_ref = self._reference_kappa(p["target"])
            z = np.empty((len(lengths), GRID_N))
            phi = np.empty_like(z)
            for i, length in enumerate(lengths):
                m = qasfg.delta_k_profile(qasfg.angle_profiles(
                    qasfg.TrajectorySpec(k_ref * 1e-3 / length, length, GRID_N)))
                z[i], phi[i] = m.z, m.phi
            qa = oracle.su2_eta(z, phi, oracle.LAB_FRAME * k_ref * 1e-3 / lengths)
            zc, phic, kc = oracle.chirp_inputs(k_ref, 1e-3, lengths, GRID_N)
            lz = oracle.su2_eta(zc, phic, kc)
            return _compare([(out.qa, lengths, qa), (out.lz, lengths, lz)])
        design = self.designs[p["design"]]
        if op.kind == "bandwidth":
            xs = np.linspace(p["lam_min"], p["lam_max"], p["samples"])
            phi, kap = oracle.bandwidth_inputs(design, xs)
        else:
            xs = np.linspace(p["rel_min"], p["rel_max"], p["samples"])
            inputs = oracle.period_inputs if op.kind == "period" else oracle.pump_inputs
            phi, kap = inputs(design, xs)
        return _compare([(out, xs, oracle.su2_eta(design.mismatch.z, phi, kap))])


def _compare(pairs):
    """Check sweep results against oracle efficiencies at the same samples."""
    worst = 0.0
    for result, xs, eta in pairs:
        if result.values.shape != xs.shape or not np.array_equal(result.values, xs):
            return Checked(False, "sweep samples differ from the requested grid")
        worst = max(worst, float(np.max(np.abs(result.efficiencies - eta))))
    if not worst <= oracle.ETA_TOL:
        return Checked(False, f"|d eta| = {worst:.3e} exceeds {oracle.ETA_TOL}", worst)
    return Checked(True, max_abs_deta=worst)


class DepletedWorkload(Workload):
    """Depleted-pump signal sweeps and single depleted propagations."""

    name = "depleted"
    # Signal sweeps of a round. Most are small and alike so that the median
    # op averages several; the largest is the config default of 41.
    SAMPLES = (3, 5, 5, 5, 5, 7, 9, 17, 41)
    SINGLES = 4  # single depleted propagations of a round
    # Half of the sweeps (at one seeded point) and half of the singles are
    # integrated again by the oracle; it costs twice the op per point.

    def setup(self):
        self.designs = _design_pool(np.random.default_rng([self.seed, 3]))

    def make_round(self):
        ops = [self.make(n, reference=i % 2 == 0) for i, n in enumerate(self.SAMPLES)]
        ops += [self.make(None, reference=i % 2 == 0) for i in range(self.SINGLES)]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def make(self, n, reference):
        d = int(self.rng.integers(len(self.designs)))
        if n is None:
            return Op("single", {"design": d, "ratio": float(self.rng.uniform(0.05, 1.2)),
                                 "reference": reference}, points=1)
        return Op("signal", {"design": d, "samples": n,
                             "ratio_min": float(self.rng.uniform(0.01, 0.2)),
                             "ratio_max": float(self.rng.uniform(0.6, 1.2)),
                             "probe": int(self.rng.integers(n)), "reference": reference},
                  points=n)

    def execute(self, op):
        p = op.params
        design = self.designs[p["design"]]
        if op.kind == "single":
            return qasfg.simulate_design(design, steps=STEPS, depleted=True,
                                         signal_pump_ratio=p["ratio"])
        return qasfg.signal_intensity_sweep(design, ratio_min=p["ratio_min"],
                                            ratio_max=p["ratio_max"],
                                            samples=p["samples"], steps=STEPS,
                                            workers=1)

    def check(self, op, out):
        p = op.params
        design = self.designs[p["design"]]
        if op.kind == "single":
            ratio, eta = p["ratio"], out.efficiency
            p1, p2, p3 = (np.abs(a) ** 2 for a in (out.a1, out.a2, out.a3))
            drift = max(np.max(np.abs(p1 + p3 - ratio ** 2)),
                        np.max(np.abs(p2 + p3 - 1.0)))
            if not drift <= oracle.DRIFT_TOL:
                return Checked(False, f"Manley-Rowe drift {drift:.3e}")
            if abs(eta - p3[-1] / ratio ** 2) > 1e-12:
                return Checked(False, "efficiency differs from the final fields")
        else:
            xs = np.linspace(p["ratio_min"], p["ratio_max"], p["samples"])
            if out.values.shape != xs.shape or not np.array_equal(out.values, xs):
                return Checked(False, "sweep samples differ from the requested grid")
            pumped = out.efficiencies * xs ** 2
            if np.any(out.efficiencies < 0.0) or np.any(pumped > 1.0 + 1e-9):
                return Checked(False, "efficiency exceeds the pump photon budget")
            ratio, eta = xs[p["probe"]], out.efficiencies[p["probe"]]
        if not p["reference"]:
            return Checked(True)
        ref, drift = oracle.depleted_eta(design.mismatch.z, design.mismatch.phi,
                                         oracle.LAB_FRAME * design.kappa, ratio, STEPS)
        deta = abs(eta - ref)
        if not (deta <= oracle.ETA_TOL and drift <= oracle.DRIFT_TOL):
            return Checked(False, f"|d eta| = {deta:.3e}, oracle drift {drift:.3e}", deta)
        return Checked(True, max_abs_deta=deta)


class CliWorkload(Workload):
    """`qasfg` subcommands, one subprocess at a time, each run twice."""

    name = "cli"
    # Ops run in child processes, mostly interpreter start-up and imports,
    # which the in-process calibration kernel does not track: report seconds.
    calibrated = False
    # (subcommand, variant); the three sweeps share SAMPLES in a seeded order.
    # A round of 14 runs outlasts a run's --seconds, so every run holds one.
    COMMANDS = (("design", None), ("simulate", None), ("simulate", "depleted"),
                ("sweep", "period"), ("sweep", "pump"), ("sweep", "bandwidth"),
                ("sweep", "kappa-trace"))
    SAMPLES = (3, 5, 9)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.runs = 0
        self.design_file = None
        self.rss_kb = 0  # largest child so far
        self.import_s = []  # import times reported by traced children

    def setup(self):
        import qasfg.cli  # noqa: F401  the import every command pays

    def make_round(self):
        rng = self.rng
        half = float(rng.uniform(0.1, 0.5))
        cfg = {
            "design": {"L_mm": _log_uniform(rng, 0.2, 20.0),
                       "target": ("deltak", "kappa")[int(rng.integers(2))],
                       "grid_N": GRID_N},
            "simulation": {"steps": STEPS, "depleted": False,
                           "signal_pump_ratio": float(rng.uniform(0.05, 1.2))},
            "sweeps": {"period": {"min_pct": float(rng.uniform(-20.0, -2.0)),
                                  "max_pct": float(rng.uniform(2.0, 20.0))},
                       "pump": {"min_pct": float(rng.uniform(-25.0, -2.0)),
                                "max_pct": float(rng.uniform(2.0, 25.0))},
                       "bandwidth": {"lambda_min_um": 3.0 - half,
                                     "lambda_max_um": 3.0 + half}},
        }
        samples = iter(int(n) for n in rng.permutation(self.SAMPLES))
        return [self.make(cfg, command, variant,
                          next(samples) if command == "sweep" and variant != "kappa-trace"
                          else None)
                for command, variant in self.COMMANDS]

    def warmup_op(self):
        return None

    def make(self, cfg, command, variant, samples):
        cfg = json.loads(json.dumps(cfg))
        argv = [command]
        points = 0
        if command == "simulate":
            cfg["simulation"]["depleted"] = variant == "depleted"
            points = 1
        elif command == "sweep":
            argv.append(variant)
            if samples:
                cfg["sweeps"][variant]["samples"] = samples
                points = samples
        optimises = command == "design" or variant == "kappa-trace"
        return Op("cli " + " ".join(argv) + (" depleted" if variant == "depleted" else ""),
                  {"argv": argv, "config": cfg,
                   "uses_design": command in ("simulate", "sweep") and not optimises},
                  points=points,
                  key=(cfg["design"]["target"], GRID_N, "default") if optimises else None)

    def _run(self, op, outdir):
        """Run one command in a fresh interpreter; return (seconds, code, spans)."""
        os.makedirs(outdir)
        cfg_path = os.path.join(outdir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(op.params["config"], fh)
        args = op.params["argv"] + ["--config", cfg_path, "--out", os.path.join(outdir, "out")]
        if op.params["uses_design"]:
            args += ["--design", self.design_file]
        trace_file = None
        if self.tracer_dir:
            trace_file = os.path.join(outdir, "spans.json")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_child.py"),
                   trace_file] + args
        else:
            cmd = [sys.executable, "-m", "qasfg.cli"] + args
        with open(os.path.join(outdir, "stdout"), "wb") as out, \
                open(os.path.join(outdir, "stderr"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        spans = None
        if trace_file and os.path.exists(trace_file):
            with open(trace_file) as fh:
                trace = json.load(fh)
            self.import_s.append(trace["import_s"])
            spans = trace["spans"]
        return seconds, proc.returncode, spans

    def execute(self, op):
        """Run the command twice into separate directories; the check
        compares them. Both runs are timed and count as ops."""
        self.runs += 1
        base = os.path.join(self.workdir, f"cmd{self.runs:05d}")
        runs = [self._run(op, os.path.join(base, tag)) for tag in ("a", "b")]
        if op.params["argv"][0] == "design" and runs[0][1] == 0:
            self.design_file = os.path.join(base, "a", "out", "design.json")
        return {"base": base, "runs": runs}

    def check(self, op, out):
        base = out["base"]
        codes = [r[1] for r in out["runs"]]
        try:
            if codes != [0, 0]:
                return Checked(False, f"exit codes {codes}")
            a, b = os.path.join(base, "a", "out"), os.path.join(base, "b", "out")
            names = sorted(os.listdir(a))
            if not names or names != sorted(os.listdir(b)):
                return Checked(False, "reruns wrote different file sets")
            written = 0
            for name in names:
                with open(os.path.join(a, name), "rb") as fa, \
                        open(os.path.join(b, name), "rb") as fb:
                    da, db = fa.read(), fb.read()
                if da != db:
                    return Checked(False, f"{name} differs between reruns")
                written += len(da)
            return Checked(True, bytes_written=written)
        finally:
            if op.params["argv"][0] != "design":
                shutil.rmtree(base, ignore_errors=True)

    def op_seconds(self, out, wall):
        return [run[0] for run in out["runs"]]

    def child_spans(self, out):
        return [run[2] for run in out["runs"] if run[2]]

    def peak_rss_mb(self):
        return self.rss_kb / 1024.0

    def cli_metrics(self, records):
        return {"cli.import_s": statistics.fmean(self.import_s) if self.import_s else 0.0,
                "cli.bytes_written": statistics.fmean(r.checked.bytes_written
                                                      for r in records)}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DesignWorkload, SweepWorkload, DepletedWorkload,
                                 CliWorkload)}
