"""Self-tests of the benchmark itself; not part of the program's test suite.

    python3 perfbench/selftest.py

Checks that the oracles agree with the program on small cases, that a seed
fixes the generated inputs, that a corrupted efficiency counts as a failed
op, and that on a traced run the per-layer self times add up to the op
wall time.
"""

import dataclasses
import os
import sys
import unittest

import numpy as np

import run  # pins the thread counts before numpy is used

sys.path.insert(0, run.SRC)
import oracle  # noqa: E402
import qasfg  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.design = qasfg.assemble_design(7.0 / 1e-3, 1e-3, "deltak")

    def test_exact_product_matches_rk4(self):
        xs = np.linspace(-0.1, 0.1, 5)
        sweep = qasfg.robustness_period_sweep(self.design, -0.1, 0.1, samples=5)
        phi, kap = oracle.period_inputs(self.design, xs)
        ref = oracle.su2_eta(self.design.mismatch.z, phi, kap)
        np.testing.assert_allclose(sweep.efficiencies, ref, rtol=0, atol=1e-10)

    def test_bandwidth_inputs_match_rk4(self):
        lams = np.linspace(2.9e-6, 3.1e-6, 3)
        sweep = qasfg.bandwidth_sweep(self.design, 2.9e-6, 3.1e-6, samples=3)
        phi, kap = oracle.bandwidth_inputs(self.design, lams)
        ref = oracle.su2_eta(self.design.mismatch.z, phi, kap)
        np.testing.assert_allclose(sweep.efficiencies, ref, rtol=0, atol=1e-10)

    def test_depleted_reference_matches_rk4(self):
        traj = qasfg.simulate_design(self.design, depleted=True, signal_pump_ratio=0.7)
        eta, drift = oracle.depleted_eta(self.design.mismatch.z, self.design.mismatch.phi,
                                         oracle.LAB_FRAME * self.design.kappa, 0.7, 20000)
        self.assertAlmostEqual(traj.efficiency, eta, delta=1e-10)
        self.assertLess(drift, oracle.DRIFT_TOL)


WORKDIR = os.path.join(run.ROOT, ".bench_work", "selftest")


def _rounds(cls, seed, count=2):
    wl = cls(seed, WORKDIR)
    wl.setup()
    return [[(op.kind, repr(op.params), op.points) for op in wl.make_round()]
            for _ in range(count)]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(_rounds(cls, 7), _rounds(cls, 7))
                self.assertNotEqual(_rounds(cls, 7), _rounds(cls, 8))


class CorruptSweep(workloads.SweepWorkload):
    def execute(self, op):
        out = super().execute(op)
        if op.kind == "length":
            return dataclasses.replace(out, qa=_nudge(out.qa))
        return _nudge(out)


class CorruptDepleted(workloads.DepletedWorkload):
    """Depleted sweeps are referenced at one seeded point; corrupt that one."""

    def execute(self, op):
        out = super().execute(op)
        if op.kind == "single":
            return dataclasses.replace(out, efficiency=out.efficiency - 1e-6)
        return _nudge(out, op.params["probe"])


def _nudge(result, index=None):
    """The same sweep with one efficiency (default: the largest) lowered by 1e-6."""
    eta = result.efficiencies.copy()
    eta[np.argmax(eta) if index is None else index] -= 1e-6
    return dataclasses.replace(result, efficiencies=eta)


def _small_ops(wl, kinds, samples=3):
    """One op of each kind from the workload's first round, cut to a few
    samples and, where the oracle checks only some ops, always checked."""
    ops = wl.make_round()
    small = []
    for kind in kinds:
        op = next(op for op in ops if op.kind == kind)
        if "samples" in op.params:
            params = dict(op.params, samples=samples)
            if "probe" in params:
                params["probe"] = samples - 1
            points = 2 * samples if kind == "length" else samples
            op = workloads.Op(kind, params, points, op.key)
        if "reference" in op.params:
            op.params["reference"] = True
        small.append(op)
    return small


class FailureTest(unittest.TestCase):
    def _failed(self, cls, kinds):
        wl = cls(3, WORKDIR)
        wl.setup()
        ops = _small_ops(wl, kinds)
        records = run.run_ops(wl, [ops])
        wl.close()
        return [r.checked.ok for r in records]

    def test_corrupted_sweep_efficiency_fails(self):
        self.assertEqual(self._failed(CorruptSweep, ("period", "bandwidth", "pump", "length")),
                         [False] * 4)

    def test_corrupted_depleted_efficiency_fails(self):
        self.assertEqual(self._failed(CorruptDepleted, ("single", "signal")), [False, False])

    def test_uncorrupted_ops_pass(self):
        self.assertEqual(self._failed(workloads.SweepWorkload, ("period", "length")),
                         [True, True])


class TraceTest(unittest.TestCase):
    def test_self_times_add_up_to_op_time(self):
        wl = workloads.SweepWorkload(5, WORKDIR)
        wl.setup()
        ops = _small_ops(wl, ("period", "length", "bandwidth"))
        tracer = tracing.Tracer()
        tracer.install()
        replay = []
        try:
            records = run.run_ops(wl, [ops], tracer=tracer, replay=replay)
        finally:
            tracer.uninstall()
        m = run.per_layer(wl, records, replay, tracer)
        wall = run.speed_scale(records) * sum(r.seconds[0] for r in records) / len(records)
        self_total = sum(v[0] for k, v in m.items()
                         if k in {f"{layer}.self_s" for layer in tracing.LAYERS})
        self.assertGreater(m["experiments.self_s"][0], 0.0)
        self.assertGreater(m["propagation.undepleted.calls"][0], 0.0)
        self.assertLessEqual(abs(wall - self_total), max(m["trace.overhead_s"][0], 1e-3))
        self.assertFalse(hasattr(qasfg.experiments.simulate_undepleted, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
