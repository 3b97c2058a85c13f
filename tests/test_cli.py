import csv
import json
import os

import numpy as np
import pytest

from qasfg import __version__
from qasfg import experiments as xp
from qasfg.cli import SWEEP_NAMES, _design_kwargs, _write_json, load_config, main

FAST_CONFIG = {
    "design": {"L_mm": 1.0, "target": "deltak", "grid_N": 1001},
    "simulation": {"steps": 4000},
    "sweeps": {
        "period": {"min_pct": -2.0, "max_pct": 2.0, "samples": 9},
        "bandwidth": {"samples": 21},
        "signal": {"samples": 5},
        "length": {"min_mm": 0.5, "max_mm": 2.0, "samples": 3},
    },
}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    if extra:
        for key, block in extra.items():
            if isinstance(block, dict):
                cfg.setdefault(key, {}).update(block)
            else:
                cfg[key] = block
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_design_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    assert main(["design", "--config", cfg, "--out", out1]) == 0
    assert main(["design", "--config", cfg, "--out", out2]) == 0
    for name in ("design.csv", "design.json", "boundary_check.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2

    payload = json.loads(open(os.path.join(out1, "design.json")).read())
    assert 74.2 <= payload["kappa_per_cm"] <= 78.2
    assert payload["config_sha256"]
    assert payload["version"]
    report = json.loads(open(os.path.join(out1, "boundary_check.json")).read())
    assert report["all_ok"]
    header = open(os.path.join(out1, "design.csv")).readline()
    assert "qasfg" in header


def test_unknown_config_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"design": {"length_mm": 1.0}}))
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["design", "--config", str(path)]) == 2


def test_kl_constraint_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"design": {"kappa_min_per_cm": 20.0,
                                             "kappa_max_per_cm": 30.0}})
    code = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "pi" in capsys.readouterr().err


@pytest.mark.parametrize("grid_n", [1000, 999])
def test_bad_grid_named(tmp_path, capsys, grid_n):
    # checked before the kappa scan, so the key is named instead of
    # "no valid trajectory in the search range"
    cfg = write_config(tmp_path, {"design": {"grid_N": grid_n}})
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "design.grid_N" in err
    assert f"grid size must be odd and >= 1001, got {grid_n}" in err


def test_zero_steps_rejected(tmp_path):
    cfg = write_config(tmp_path, {"simulation": {"steps": 0}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_sweep_name(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "wavelength", "--config", cfg]) == 2
    assert "bandwidth" in capsys.readouterr().err


def test_simulate_roundtrip_through_design_file(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["design", "--config", cfg, "--out", out]) == 0
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--design", os.path.join(out, "design.json")]) == 0
    summary = json.loads(open(os.path.join(out, "simulate_summary.json")).read())
    assert summary["eta"] >= 0.99
    assert os.path.exists(os.path.join(out, "trajectory.csv"))


def test_design_file_keeps_search_boundary_flag(tmp_path):
    # kappa* of the 1 mm design lies above this window, so the search stops
    # at its edge; a design file must carry that flag into later runs
    cfg = write_config(tmp_path, {"design": {"kappa_min_per_cm": 60.0,
                                             "kappa_max_per_cm": 65.0}})
    out = tmp_path / "out"
    assert main(["design", "--config", cfg, "--out", str(out / "d")]) == 0
    from_file = ["--design", str(out / "d" / "design.json")]
    blocks = []
    for name, extra in (("config", []), ("file", from_file)):
        assert main(["simulate", "--config", cfg, "--out", str(out / name)] + extra) == 0
        summary = json.loads((out / name / "simulate_summary.json").read_text())
        blocks.append(summary["design"])
    assert blocks[0]["kappa_at_search_boundary"] is True
    assert blocks[1] == blocks[0]


def test_simulate_depleted_mode(tmp_path):
    cfg = write_config(tmp_path, {"simulation": {"steps": 6000, "depleted": True,
                                                 "signal_pump_ratio": 1.0}})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "simulate_summary.json")).read())
    assert summary["depleted"] is True
    assert 0.6 < summary["eta"] < 0.9
    header = open(os.path.join(out, "trajectory.csv")).read().splitlines()[2]
    assert header.endswith("re_A2,im_A2")


@pytest.mark.parametrize("depleted", [False, True])
def test_simulate_summary_records_steps_taken(tmp_path, depleted):
    # 1500 steps on 1000 cells round up to 2 steps per cell
    cfg = write_config(tmp_path, {"simulation": {"steps": 1500, "depleted": depleted}})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "simulate_summary.json")).read())
    assert (summary["steps"], summary["steps_taken"]) == (1500, 2000)


def test_simulate_missing_design_file(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--design", str(tmp_path / "missing.json")]) == 2


def test_period_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["sweep", "period", "--config", cfg, "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "period_summary.json")).read())
    assert "tolerance_intervals" in summary["summary"]
    assert summary["design"]["target"] == "deltak"
    lines = open(os.path.join(out, "period.csv")).read().splitlines()
    assert len(lines) == 2 + 1 + 9  # two headers, column row, 9 samples


def test_length_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["sweep", "length", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "length.csv")).read().splitlines()
    assert lines[2] == "length_m,eta_designed,eta_chirp_baseline"
    assert len(lines) == 3 + 3
    summary = json.loads(open(os.path.join(out, "length_summary.json")).read())
    assert summary["designed"]["flatness_max_minus_min"] < 0.01
    assert "chirp_baseline" in summary


def test_length_sweep_takes_no_material(tmp_path):
    # the length sweep depends on kappa*L and z/L only, so another dispersion
    # set, temperature and signal wavelength write the same rows and summary
    length = {"sweeps": {"length": {"samples": 5}}}
    other = {"material": {"dispersion_set": "gayer2008_mgo_cln_o",
                          "temperature_C": 60.0}, "design": {"lambda1_um": 3.2}}
    runs = []
    for name, extra in (("default", {}), ("other", other)):
        cfg = write_config(tmp_path, dict(length, **extra), name=f"{name}.json")
        out = tmp_path / name
        assert main(["sweep", "length", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "length_summary.json").read_text())
        runs.append(((out / "length.csv").read_text().splitlines(),
                     summary.pop("config_sha256"), summary))
    (rows, hash_a, summary), (other_rows, hash_b, other_summary) = runs
    assert len(rows) == 3 + 5 and rows[2:] == other_rows[2:]
    assert hash_a != hash_b and summary == other_summary


def test_summary_design_block_is_the_design_record(tmp_path):
    # the "design" block of every summary is design.json's identity keys
    # merged with its material block, for a design from the config or a file
    out = tmp_path / "out"
    assert main(["design", "--out", str(out)]) == 0
    assert main(["simulate", "--out", str(out)]) == 0
    assert main(["sweep", "pump", "--out", str(out / "f"),
                 "--design", str(out / "design.json")]) == 0
    payload = json.loads((out / "design.json").read_text())
    identity = ("target", "kappa_per_cm", "L_mm", "q_value", "grid_N", "lambda1_um",
                "lambda2_um", "kappa_at_search_boundary")
    record = dict({key: payload[key] for key in identity}, **payload["material"])
    for path in (out / "simulate_summary.json", out / "f" / "pump_summary.json"):
        assert json.loads(path.read_text())["design"] == record


@pytest.mark.parametrize("sweep", ["bandwidth", "period", "pump", "length"])
def test_exact_sweeps_ignore_steps(tmp_path, sweep):
    # the undepleted sweeps take no steps, so any positive count gives the
    # same rows as the default 20000
    rows = []
    for steps in (10, 20000):
        cfg = write_config(tmp_path, {"simulation": {"steps": steps}},
                           name=f"steps{steps}.json")
        out = tmp_path / f"out{steps}"
        assert main(["sweep", sweep, "--config", cfg, "--out", str(out)]) == 0
        rows.append((out / f"{sweep}.csv").read_text().splitlines()[2:])
    assert rows[0] == rows[1]


def test_optimize_outputs(tmp_path):
    # the kappa* search has one subcommand, `sweep kappa-trace`
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["sweep", "kappa-trace", "--config", cfg, "--out", out]) == 0
    payload = json.loads(open(os.path.join(out, "kappa_trace_summary.json")).read())
    assert 74.2 <= payload["kappa_per_cm"] <= 78.2
    assert payload["at_boundary"] is False
    assert payload["target"] == "deltak"
    with open(os.path.join(out, "kappa_trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[2] == ["kappa_per_cm", "q_value"]
    assert len(rows) - 3 == 400
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", cfg, "--out", out])
    assert exc.value.code == 2


def _assert_artifact(path, cfg_hash, names, *columns):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[:2] == [[f"# qasfg v{__version__}"], [f"# config_sha256={cfg_hash}"]]
    assert rows[2] == names
    cells = np.array([[float(c) for c in r] for r in rows[3:]])
    expected = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    assert cells.shape == expected.shape
    assert cells.tobytes() == expected.tobytes()  # bit for bit


def test_csv_artifacts_roundtrip(tmp_path):
    # every cell of design, simulate (both modes) and sweep pump reads back
    # with float() to the in-memory value it was written from
    out = tmp_path / "out"
    sweeps = {"pump": {"min_pct": -5.0, "max_pct": 5.0, "samples": 5}}
    plain = write_config(tmp_path, {"sweeps": sweeps}, name="plain.json")
    depleted = write_config(tmp_path, {"sweeps": sweeps, "simulation": {
        "depleted": True, "signal_pump_ratio": 0.6}}, name="depleted.json")
    cfg, cfg_hash = load_config(plain)
    kwargs, search = _design_kwargs(cfg)
    design = xp.build_design(search_range=search, **kwargs)

    assert main(["design", "--config", plain, "--out", str(out / "d")]) == 0
    _assert_artifact(out / "d" / "design.csv", cfg_hash,
                     ["z_m", "deltak_rad_per_m", "Lambda_m"], design.mismatch.z,
                     design.mismatch.delta_k, design.poling_period_m)

    names = ["z_m", "re_A1", "im_A1", "re_A3", "im_A3"]
    assert main(["simulate", "--config", plain, "--out", str(out / "s")]) == 0
    traj = xp.simulate_design(design, steps=4000)
    _assert_artifact(out / "s" / "trajectory.csv", cfg_hash, names, traj.z,
                     traj.a1.real, traj.a1.imag, traj.a3.real, traj.a3.imag)

    assert main(["simulate", "--config", depleted, "--out", str(out / "sd")]) == 0
    traj = xp.simulate_design(design, steps=4000, depleted=True,
                              signal_pump_ratio=0.6)
    _assert_artifact(out / "sd" / "trajectory.csv", load_config(depleted)[1],
                     names + ["re_A2", "im_A2"], traj.z, traj.a1.real,
                     traj.a1.imag, traj.a3.real, traj.a3.imag, traj.a2.real,
                     traj.a2.imag)

    assert main(["sweep", "pump", "--config", plain, "--out", str(out / "p")]) == 0
    sweep = xp.robustness_pump_sweep(design, rel_min=-0.05, rel_max=0.05,
                                     samples=5, steps=4000)
    _assert_artifact(out / "p" / "pump.csv", cfg_hash,
                     ["pump_intensity_rel_error_1", "eta", "eta_first_order_estimate"],
                     sweep.values, sweep.efficiencies, sweep.estimates)
    payload = json.loads((out / "p" / "pump_summary.json").read_text())
    assert payload["design"]["target"] == "deltak"
    assert payload["samples"] == 5
    assert "tolerance_intervals" in payload["summary"]


def test_workers_key_unknown(tmp_path, capsys):
    # sweeps are solved in-process; the worker-pool setting is gone
    cfg = write_config(tmp_path, {"workers": 2})
    assert main(["sweep", "period", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key: workers" in capsys.readouterr().err


@pytest.mark.parametrize("block,key,value", [
    ("sweeps.period", "samples", 5.9),
    ("simulation", "steps", 4000.5),
    ("design", "grid_N", 1001.0),
    ("simulation", "depleted", 1),
    ("design", "kappa_min_per_cm", True),
])
def test_integer_and_boolean_keys_typed(tmp_path, capsys, block, key, value):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    node = cfg
    for part in block.split("."):
        node = node.setdefault(part, {})
    node[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "period", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{block}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("sweep,block,named", [
    ("signal", {"samples": 0}, "sweeps.signal.samples"),
    ("period", {"samples": 0}, "sweeps.period.samples"),
    ("period", {"samples": -3}, "sweeps.period.samples"),
    ("pump", {"min_pct": 10.0, "max_pct": -10.0}, "sweeps.pump.min_pct"),
    ("pump", {"min_pct": -100.0}, "sweeps.pump.min_pct"),
    ("length", {"min_mm": 0.0}, "sweeps.length.min_mm"),
    ("length", {"min_mm": 2.0, "max_mm": 2.0}, "sweeps.length.max_mm"),
    ("bandwidth", {"lambda_min_um": -1.0}, "sweeps.bandwidth.lambda_min_um"),
    ("signal", {"ratio_min": 0.0}, "sweeps.signal.ratio_min"),
    ("period", {"min_pct": -10.0, "max_pct": 150.0, "samples": 5}, "sweeps.period.max_pct"),
    ("period", {"max_pct": 100.0}, "sweeps.period.max_pct"),
    # outside the dispersion set's 0.5-4 um, or summed with lambda2_um below it
    ("bandwidth", {"lambda_max_um": 4.5}, "sweeps.bandwidth.lambda_max_um"),
    ("bandwidth", {"lambda_min_um": 0.4, "lambda_max_um": 3.0},
     "sweeps.bandwidth.lambda_min_um"),
    ("bandwidth", {"lambda_min_um": 0.6}, "sweeps.bandwidth.lambda_min_um"),
])
def test_bad_sweep_block_names_key(tmp_path, capsys, sweep, block, named):
    # checked when the config loads: exit 2 naming the key, for any subcommand
    cfg = write_config(tmp_path, {"sweeps": {sweep: block}})
    for argv in (["sweep", sweep], ["design"]):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


def test_bad_sweep_block_under_design_file_names_key(tmp_path, capsys):
    # under --design the bandwidth window is checked against the design
    # file's pump wavelength, before any output directory is made
    design_cfg = write_config(tmp_path, {"design": {"lambda2_um": 0.9}}, name="d.json")
    assert main(["design", "--config", design_cfg, "--out", str(tmp_path / "d")]) == 0
    window = {"lambda_min_um": 1.0, "lambda_max_um": 3.6, "samples": 5}
    cfg = write_config(tmp_path, {"sweeps": {"bandwidth": window}})
    assert main(["sweep", "bandwidth", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    out = tmp_path / "o2"
    assert main(["sweep", "bandwidth", "--config", cfg, "--out", str(out),
                 "--design", str(tmp_path / "d" / "design.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sweeps.bandwidth.lambda_min_um" in err
    assert not out.exists()


@pytest.mark.parametrize("block,named", [
    ({"design": {"L_mm": float("nan")}}, "design.L_mm"),
    ({"design": {"L_mm": -1.0}}, "design.L_mm"),
    ({"design": {"lambda1_um": -3.0}}, "design.lambda1_um"),
    ({"design": {"lambda2_um": 4.5}}, "design.lambda2_um"),
    ({"design": {"lambda1_um": 0.6, "lambda2_um": 0.6}}, "design.lambda2_um"),
    ({"design": {"kappa_min_per_cm": 60.0, "kappa_max_per_cm": 50.0}},
     "design.kappa_min_per_cm"),
    ({"design": {"kappa_min_per_cm": 60.0, "kappa_max_per_cm": float("inf")}},
     "design.kappa_max_per_cm"),
    ({"simulation": {"depleted": True, "signal_pump_ratio": float("nan")}},
     "simulation.signal_pump_ratio"),
    ({"material": {"d33_pm_per_V": 0.0}}, "material.d33_pm_per_V"),
    ({"material": {"d33_pm_per_V": -5.0}}, "material.d33_pm_per_V"),
    ({"material": {"d33_pm_per_V": float("inf")}}, "material.d33_pm_per_V"),
    ({"material": {"duty_cycle": 0.0}}, "material.duty_cycle"),
    ({"material": {"duty_cycle": 1.5}}, "material.duty_cycle"),
    ({"material": {"chi2_convention": "foo"}}, "material.chi2_convention"),
    ({"material": {"epsilon0_convention": "foo"}}, "material.epsilon0_convention"),
    ({"design": {"target": "foo"}}, "design.target"),
    ({"material": {"dispersion_set": "foo"}}, "material.dispersion_set"),
    ({"material": {"temperature_C": float("nan")}}, "material.temperature_C"),
    # finite, but the Sellmeier temperature factor overflows to inf
    ({"material": {"temperature_C": 1e300}}, "material.temperature_C"),
    # finite real indices, but at or below absolute zero
    ({"material": {"temperature_C": -400.0}}, "material.temperature_C"),
    ({"material": {"temperature_C": -273.15}}, "material.temperature_C"),
])
def test_bad_design_value_names_key(tmp_path, capsys, block, named):
    # checked when the config loads, before the library sees the value
    cfg = write_config(tmp_path, block)
    for command in ("design", "simulate"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


VALID_DESIGN = {
    "version": __version__, "kappa_rad_per_m": 7510.0, "L_mm": 1.0,
    "target": "deltak", "grid_N": 1001, "lambda1_um": 3.0, "lambda2_um": 1.064,
    "q_value": 2.4e-9, "kappa_at_search_boundary": False,
    "material": {"dispersion_set": "gayer2008_mgo_cln_e", "temperature_C": 25.0,
                 "chi2_m_per_V": 2.5e-11, "duty_cycle": 0.5,
                 "eps0_F_per_m": 8.85e-12},
}


MISSING = object()  # an edit value that drops the key


@pytest.mark.parametrize("edit,named", [
    ({"L_mm": "1.0"}, "L_mm"),
    ({"grid_N": 1001.5}, "grid_N"),
    ({"target": 1}, "target"),
    ({"material": dict(VALID_DESIGN["material"], duty_cycle="0.5")},
     "material.duty_cycle"),
    ({"material": {"dispersion_set": "gayer2008_mgo_cln_e"}},
     "material.temperature_C"),
    ({"material": []}, "material"),
    ({"target": "foo"}, "target"),
    ({"version": "9.9.9"}, "version"),
    ({"q_value": "abc"}, "q_value"),
    ({"grid_N": 1000}, "bad value for design file key grid_N"),
    ({"grid_N": 999}, "bad value for design file key grid_N"),
    ({"version": MISSING}, "lacks the key version"),
    ({"kappa_at_search_boundary": MISSING}, "lacks the key kappa_at_search_boundary"),
    ({"kappa_at_search_boundary": 0}, "kappa_at_search_boundary"),
    ({"q_value": MISSING}, "lacks the key q_value"),
    ({"q_value": float("nan")}, "bad value for design file key q_value"),
    ({"material": dict(VALID_DESIGN["material"], chi2_m_per_V=0.0)},
     "bad value for design file key material.chi2_m_per_V"),
    ({"material": dict(VALID_DESIGN["material"], duty_cycle=1.0)},
     "bad value for design file key material.duty_cycle"),
    ({"material": dict(VALID_DESIGN["material"], eps0_F_per_m=0.0)},
     "bad value for design file key material.eps0_F_per_m"),
    ({"material": dict(VALID_DESIGN["material"], eps0_F_per_m=-1.0)},
     "bad value for design file key material.eps0_F_per_m"),
    ({"kappa_rad_per_m": 0.0}, "bad value for design file key kappa_rad_per_m"),
    ({"kappa_rad_per_m": -7510.0}, "bad value for design file key kappa_rad_per_m"),
    ({"L_mm": 0.0}, "bad value for design file key L_mm"),
    ({"lambda1_um": 9.0}, "bad value for design file key lambda1_um"),
    ({"material": dict(VALID_DESIGN["material"], temperature_C=float("nan"))},
     "bad value for design file key material.temperature_C"),
    ({"material": dict(VALID_DESIGN["material"], dispersion_set="foo")},
     "bad value for design file key material.dispersion_set"),
    # the square of the temperature term overflows a Python float
    ({"material": dict(VALID_DESIGN["material"], temperature_C=1e150)},
     "bad value for design file key material.temperature_C"),
    ({"material": dict(VALID_DESIGN["material"], temperature_C=-400.0)},
     "bad value for design file key material.temperature_C"),
    ({"material": dict(VALID_DESIGN["material"], temperature_C=-273.15)},
     "bad value for design file key material.temperature_C"),
])
def test_design_file_fields_typed(tmp_path, capsys, edit, named):
    cfg = write_config(tmp_path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(VALID_DESIGN))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--design", str(good)]) == 0
    bad = tmp_path / "bad.json"
    edited = dict(VALID_DESIGN, **edit)
    bad.write_text(json.dumps({k: v for k, v in edited.items() if v is not MISSING}))
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--design", str(bad)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("block,named", [
    ({"design": {"target": "foo"}}, "design.target"),
    ({"material": {"chi2_convention": "foo"}}, "material.chi2_convention"),
    ({"design": {"grid_N": 1000}}, "design.grid_N"),
])
def test_config_checked_under_design_file(tmp_path, capsys, block, named):
    # a --design run reads no design keys from the config, but still loads
    # and checks all of it
    good = tmp_path / "good.json"
    good.write_text(json.dumps(VALID_DESIGN))
    cfg = write_config(tmp_path, block)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--design", str(good)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def _strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_json_artifacts_are_strict(tmp_path):
    # every JSON file of the default config's runs is standard JSON; the
    # depleted runs use the fast config
    out = tmp_path / "out"
    for argv in (["design"], ["simulate"],
                 *(["sweep", name] for name in SWEEP_NAMES if name != "signal")):
        assert main(argv + ["--out", str(out)]) == 0
    depleted = write_config(tmp_path, {"simulation": {"depleted": True}})
    for argv in (["simulate"], ["sweep", "signal"]):
        assert main(argv + ["--config", depleted, "--out", str(out / "d")]) == 0
    paths = sorted(out.rglob("*.json"))
    assert [str(p.relative_to(out)) for p in paths] == [
        "bandwidth_summary.json", "boundary_check.json", "d/signal_summary.json",
        "d/simulate_summary.json", "design.json", "kappa_trace_summary.json",
        "length_summary.json", "period_summary.json", "pump_summary.json",
        "simulate_summary.json"]
    for path in paths:
        _strict_json(path.read_text())
    entry = _strict_json((out / "boundary_check.json").read_text())["delta_k_finite"]
    assert entry["ok"] and entry["expected"] is None


def test_non_finite_json_value_is_an_internal_error(tmp_path):
    # a NaN or infinity in a payload is a numeric failure (exit 1), and no
    # file is written
    path = tmp_path / "summary.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ArithmeticError, match="summary.json"):
            _write_json(str(path), {"eta": value}, "0" * 64)
        assert not path.exists()
