"""Command-line front end: config parsing, subcommand dispatch, and
reproducible CSV/JSON emission.

Subcommands: design | simulate | sweep. Exit codes: 0 success,
1 internal/numeric failure, 2 user/config error. This is the only module
that writes artifacts: every CSV goes through _write_csv and every JSON
through _write_json, so all outputs embed the config hash and tool version,
and reruns with the same config are byte-identical.
"""

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .materials import (DispersionModel, NonlinearConstants, MaterialError,
                        EPS0_CHOICES, SELLMEIER_SETS)
from .propagation import PropagationError
from .sensitivity import TARGETS, optimize_kappa
from .trajectory import TrajectoryError, _check_grid_n, boundary_check
from . import experiments as xp

DEFAULT_CONFIG = {
    "material": {
        "dispersion_set": "gayer2008_mgo_cln_e",
        "temperature_C": 25.0,
        "d33_pm_per_V": 25.0,
        "chi2_convention": "d33",
        "duty_cycle": 0.5,
        "epsilon0_convention": "paper-value",
    },
    "design": {
        "L_mm": 1.0,
        "target": "deltak",
        "lambda1_um": 3.0,
        "lambda2_um": 1.064,
        "grid_N": 4001,
        "kappa_min_per_cm": None,
        "kappa_max_per_cm": None,
    },
    "simulation": {
        "steps": 20000,
        "depleted": False,
        "signal_pump_ratio": 1.0,
    },
    "sweeps": {
        "bandwidth": {"lambda_min_um": 2.6, "lambda_max_um": 3.6, "samples": 201},
        "period": {"min_pct": -20.0, "max_pct": 20.0, "samples": 81},
        "pump": {"min_pct": -25.0, "max_pct": 25.0, "samples": 81},
        "length": {"min_mm": 0.2, "max_mm": 20.0, "samples": 25},
        "signal": {"ratio_min": 0.01, "ratio_max": 1.0, "samples": 41},
    },
    "output": {"dir": "qasfg_out"},
}

SWEEP_NAMES = ("bandwidth", "period", "pump", "length", "signal", "kappa-trace")

POSITIVE = (0.0, math.inf)
FINITE = (-math.inf, math.inf)
# The limits of each checked config key, nested as DEFAULT_CONFIG: a tuple of
# choices where the default is a string, open bounds (lo, hi) otherwise. Every
# key with "min" in its name has a "max" twin in its block, and the two form a
# range: both set or neither, and min < max. A period error of -100 % or
# +100 % or beyond has no first-order estimate. temperature_C need only be
# finite here: no temperature range is recorded for the dispersion sets, and
# _check_grid_and_band asks for finite real indices at it.
LIMITS = {
    "material": {
        "dispersion_set": tuple(SELLMEIER_SETS),
        "temperature_C": FINITE,
        "d33_pm_per_V": POSITIVE,
        "chi2_convention": ("d33", "2d33"),
        "duty_cycle": (0.0, 1.0),
        "epsilon0_convention": tuple(EPS0_CHOICES),
    },
    "design": {"L_mm": POSITIVE, "target": TARGETS,
               "kappa_min_per_cm": POSITIVE, "kappa_max_per_cm": POSITIVE},
    "simulation": {"steps": POSITIVE, "signal_pump_ratio": FINITE},
    "sweeps": {
        "bandwidth": {"lambda_min_um": POSITIVE, "lambda_max_um": POSITIVE,
                      "samples": POSITIVE},
        "period": {"min_pct": (-100.0, 100.0), "max_pct": (-100.0, 100.0),
                   "samples": POSITIVE},
        "pump": {"min_pct": (-100.0, math.inf), "max_pct": (-100.0, math.inf),
                 "samples": POSITIVE},
        "length": {"min_mm": POSITIVE, "max_mm": POSITIVE, "samples": POSITIVE},
        "signal": {"ratio_min": POSITIVE, "ratio_max": POSITIVE, "samples": POSITIVE},
    },
}


# Each windowed sweep's min and max keys, the conversion of their values to
# the library's units, and the spacing of the grid it builds between them.
SWEEP_WINDOWS = {
    "bandwidth": ("lambda_min_um", "lambda_max_um", lambda v: v * 1e-6, np.linspace),
    "period": ("min_pct", "max_pct", lambda v: v / 100.0, np.linspace),
    "pump": ("min_pct", "max_pct", lambda v: v / 100.0, np.linspace),
    "length": ("min_mm", "max_mm", lambda v: v * 1e-3, np.geomspace),
    "signal": ("ratio_min", "ratio_max", lambda v: v, np.linspace),
}


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


USER_ERRORS = (ConfigError, TrajectoryError, MaterialError, PropagationError,
               ValueError, FileNotFoundError)


def _type_ok(value, ref):
    """JSON type check against a default or example value ref: booleans and
    integers only where those are expected, any number for a float or null."""
    if isinstance(ref, bool) or isinstance(value, bool):
        return type(value) is type(ref)
    if ref is None or isinstance(ref, float):
        return (value is None and ref is None) or isinstance(value, (int, float))
    return isinstance(value, type(ref))


def _check_limits(source, key, value, limits):
    """Raise ConfigError naming the source's key unless value is None, one of
    the choices limits gives, or inside its open bounds (lo, hi)."""
    if limits is None or value is None:
        return
    if isinstance(limits[0], str):
        if value not in limits:
            raise ConfigError(f"bad value for {source} key {key}: need one of "
                              f"{', '.join(limits)}, got {value!r}")
    elif not limits[0] < value < limits[1]:
        name = key.rpartition(".")[2]
        raise ConfigError(f"bad value for {source} key {key}: "
                          f"need {limits[0]:g} < {name} < {limits[1]:g}, got {value!r}")


def _merge_validate(user, default, limits, path=""):
    """Merge user config onto defaults; reject unknown keys, bad types,
    values outside their limits and unordered ranges."""
    if not isinstance(user, dict):
        raise ConfigError(f"config block {path or '<root>'} must be an object")
    merged = copy.deepcopy(default)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in default:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(default[key], dict):
            merged[key] = _merge_validate(value, default[key], limits.get(key, {}), here)
        else:
            if not _type_ok(value, default[key]):
                raise ConfigError(f"bad type for config key {here}: {value!r}")
            _check_limits("config", here, value, limits.get(key))
            merged[key] = value
    for lo in [key for key in merged if "min" in key]:
        hi = lo.replace("min", "max")
        if (merged[lo] is None) != (merged[hi] is None):
            raise ConfigError(f"set both config keys {path}.{lo} and {path}.{hi} or neither")
        if merged[lo] is not None and not merged[lo] < merged[hi]:
            raise ConfigError(f"bad range for config keys {path}.{lo} and {path}.{hi}: "
                              f"need {lo} < {hi}, got {merged[lo]!r} and {merged[hi]!r}")
    return merged


def _check_grid_and_band(source, prefix, block, mat, signals):
    """The checks no single limit makes: block's grid_N odd and at least 1001,
    its wavelengths and their sum-frequency wavelength inside the validity
    range of the dispersion set of the material block mat, and the three
    refractive indices finite and real at mat's temperature. prefix is the
    path of block's keys. signals holds config (key, wavelength in um)
    pairs, each checked as block's lambda1_um is."""
    try:
        _check_grid_n(block["grid_N"])
    except TrajectoryError as err:
        raise ConfigError(f"bad value for {source} key {prefix}grid_N: {err}") from None
    sellmeier = SELLMEIER_SETS[mat["dispersion_set"]]
    lo, hi = sellmeier.valid_um
    lam1, lam2 = block["lambda1_um"], block["lambda2_um"]
    signals = [(source, prefix + "lambda1_um", lam1),
               *(("config", key, lam) for key, lam in signals)]
    for src, key, lam in [(source, prefix + "lambda2_um", lam2), *signals]:
        if not lo <= lam <= hi:
            name = key.rpartition(".")[2]
            raise ConfigError(
                f"bad value for {src} key {key}: need {lo} <= {name} <= "
                f"{hi} ({sellmeier.name} validity range), got {lam!r}")
    for src, key, lam in signals:
        lam3 = 1.0 / (1.0 / lam + 1.0 / lam2)
        if not lo <= lam3 <= hi:
            raise ConfigError(
                f"bad values for {src} key {key} and {source} key {prefix}lambda2_um: "
                f"their sum-frequency wavelength {lam3:.4f} um lies outside the "
                f"{sellmeier.name} validity range [{lo}, {hi}] um")
    try:
        sellmeier.index([lam1, lam2, 1.0 / (1.0 / lam1 + 1.0 / lam2)], mat["temperature_C"])
    except MaterialError as err:
        raise ConfigError(
            f"bad value for {source} key material.temperature_C: {err}") from None


def _band_window(cfg):
    """The bandwidth sweep's window as (config key, wavelength in um) pairs."""
    band = cfg["sweeps"]["bandwidth"]
    return [(f"sweeps.bandwidth.{key}", band[key])
            for key in ("lambda_min_um", "lambda_max_um")]


def _sweep_window(cfg, name):
    """The named sweep's (min, max, grid) in the library's units: the grid it
    builds on its window. ConfigError naming the window's keys where that grid
    is not strictly increasing, a window too narrow for its samples."""
    block = cfg["sweeps"][name]
    lo_key, hi_key, to_lib, spacing = SWEEP_WINDOWS[name]
    lo, hi = to_lib(block[lo_key]), to_lib(block[hi_key])
    grid = spacing(lo, hi, block["samples"])
    if np.any(np.diff(grid) <= 0):
        keys = [f"sweeps.{name}.{key}" for key in (lo_key, hi_key, "samples")]
        raise ConfigError(
            f"bad window for config keys {', '.join(keys)}: its {block['samples']} "
            f"samples are not strictly increasing; widen it or take fewer samples")
    return lo, hi, grid


def load_config(path):
    """Read, validate, and merge the config file; return (config, sha256)."""
    if path is None:
        merged = copy.deepcopy(DEFAULT_CONFIG)
    else:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}")
        merged = _merge_validate(user, DEFAULT_CONFIG, LIMITS)
        _check_grid_and_band("config", "design.", merged["design"], merged["material"],
                             _band_window(merged))
        for name in SWEEP_WINDOWS:
            _sweep_window(merged, name)
    canonical = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return merged, hashlib.sha256(canonical.encode()).hexdigest()


def _material_objects(mat):
    model = DispersionModel.from_name(mat["dispersion_set"], mat["temperature_C"])
    d33 = mat["d33_pm_per_V"] * 1e-12
    chi2 = 2.0 * d33 if mat["chi2_convention"] == "2d33" else d33
    eps0 = EPS0_CHOICES[mat["epsilon0_convention"]]
    return model, NonlinearConstants(chi2=chi2, duty_cycle=mat["duty_cycle"]), eps0


def _design_kwargs(cfg):
    model, nl, eps0 = _material_objects(cfg["material"])
    d = cfg["design"]
    search = None
    if d["kappa_min_per_cm"] is not None:
        search = (d["kappa_min_per_cm"] * 100.0, d["kappa_max_per_cm"] * 100.0)
    return dict(length=d["L_mm"] * 1e-3, target=d["target"], model=model,
                nonlinear=nl, lam1=d["lambda1_um"] * 1e-6,
                lam2=d["lambda2_um"] * 1e-6, grid_n=d["grid_N"],
                eps0=eps0), search


def _write_csv(path, cfg_hash, names, *columns):
    """Two '#' header lines, the column names, then one row per sample with
    every cell written as repr(float), which float() reads back exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# qasfg v{__version__}\n# config_sha256={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*columns, strict=True):
            writer.writerow([repr(float(v)) for v in row])


def _write_json(path, payload, cfg_hash):
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_sha256"] = cfg_hash
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:  # a NaN or infinity is a numeric failure: exit 1
        raise ArithmeticError(f"{os.path.basename(path)}: {err}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _design_record(design):
    """The design's identity and its material, as two dicts: design.json
    nests the material, and every summary's "design" block is the two merged."""
    identity = {"target": design.target, "kappa_per_cm": design.kappa / 100.0,
                "L_mm": design.length * 1e3, "q_value": design.q_value,
                "grid_N": design.mismatch.z.size,
                "lambda1_um": design.triplet.lam1 * 1e6,
                "lambda2_um": design.triplet.lam2 * 1e6,
                "kappa_at_search_boundary": design.at_boundary}
    material = {"dispersion_set": design.model.sellmeier.name,
                "temperature_C": design.model.temperature_c,
                "chi2_m_per_V": design.nonlinear.chi2,
                "duty_cycle": design.nonlinear.duty_cycle,
                "eps0_F_per_m": design.eps0}
    return identity, material


def _design_block(design):
    identity, material = _design_record(design)
    return dict(identity, **material)


def _design_payload(design):
    identity, material = _design_record(design)
    return dict(identity, material=material, kappa_rad_per_m=design.kappa,
                lambda3_um=design.triplet.lam3 * 1e6,
                A2_V_per_m=design.pump_amplitude,
                intensity_W_per_m2=design.pump_intensity,
                intensity_MW_per_cm2=design.pump_intensity / 1e10)


# The fields a design file must carry: each field's example value, of its
# type, and its limits in LIMITS form (None: unchecked). grid_N and the
# wavelengths are checked as the config's are.
DESIGN_FIELDS = {"version": ("", None), "kappa_rad_per_m": (0.0, POSITIVE),
                 "L_mm": (0.0, POSITIVE), "target": ("", TARGETS),
                 "grid_N": (0, None), "lambda1_um": (0.0, None),
                 "lambda2_um": (0.0, None), "q_value": (0.0, FINITE),
                 "kappa_at_search_boundary": (False, None), "material": ({}, None),
                 "material.dispersion_set": ("", tuple(SELLMEIER_SETS)),
                 "material.temperature_C": (0.0, FINITE),
                 "material.chi2_m_per_V": (0.0, POSITIVE),
                 "material.duty_cycle": (0.0, (0.0, 1.0)),
                 "material.eps0_F_per_m": (0.0, POSITIVE)}


def _design_from_file(path, signals):
    """The design a design file records, checked as a config's design block
    is, with the config's (key, wavelength in um) pairs signals checked
    against the file's pump wavelength and material."""
    with open(path) as fh:
        data = json.load(fh)
    for key, (ref, limits) in DESIGN_FIELDS.items():
        parent, _, name = key.rpartition(".")
        block = data[parent] if parent else data
        if not isinstance(block, dict) or name not in block:
            raise ConfigError(f"design file {path} lacks the key {key}")
        if not _type_ok(block[name], ref):
            raise ConfigError(f"bad type for design file key {key}: {block[name]!r}")
        _check_limits("design file", key, block[name], limits)
    mat = data["material"]
    _check_grid_and_band("design file", "", data, mat, signals)
    if data["version"] != __version__:
        raise ConfigError(f"design file key version is {data['version']!r}, "
                          f"but this is qasfg {__version__}")
    model = DispersionModel.from_name(mat["dispersion_set"], mat["temperature_C"])
    nl = NonlinearConstants(chi2=mat["chi2_m_per_V"], duty_cycle=mat["duty_cycle"])
    return xp.assemble_design(
        kappa=data["kappa_rad_per_m"], length=data["L_mm"] * 1e-3,
        target=data["target"], model=model, nonlinear=nl,
        lam1=data["lambda1_um"] * 1e-6, lam2=data["lambda2_um"] * 1e-6,
        grid_n=data["grid_N"], eps0=mat["eps0_F_per_m"], q_value=data["q_value"],
        at_boundary=data["kappa_at_search_boundary"])


def _obtain_design(args, cfg):
    if getattr(args, "design", None):
        return _design_from_file(args.design, _band_window(cfg))
    kwargs, search = _design_kwargs(cfg)
    return xp.build_design(search_range=search, **kwargs)


def cmd_design(args):
    cfg, cfg_hash = load_config(args.config)
    outdir = args.out or cfg["output"]["dir"]
    design = _obtain_design(args, cfg)
    os.makedirs(outdir, exist_ok=True)

    _write_csv(os.path.join(outdir, "design.csv"), cfg_hash,
               ["z_m", "deltak_rad_per_m", "Lambda_m"],
               design.mismatch.z, design.mismatch.delta_k, design.poling_period_m)
    _write_json(os.path.join(outdir, "design.json"), _design_payload(design), cfg_hash)
    report = boundary_check(design.angles, design.mismatch)
    _write_json(os.path.join(outdir, "boundary_check.json"), report, cfg_hash)
    if not report["all_ok"]:
        print("boundary check failed", file=sys.stderr)
        return 1
    print(f"design written to {outdir} (kappa = {design.kappa / 100.0:.4f} /cm)")
    return 0


def cmd_simulate(args):
    cfg, cfg_hash = load_config(args.config)
    outdir = args.out or cfg["output"]["dir"]
    design = _obtain_design(args, cfg)
    os.makedirs(outdir, exist_ok=True)
    sim = cfg["simulation"]
    steps = sim["steps"]
    traj = xp.simulate_design(design, steps=steps, depleted=bool(sim["depleted"]),
                              signal_pump_ratio=sim["signal_pump_ratio"])
    names = ["z_m", "re_A1", "im_A1", "re_A3", "im_A3"]
    columns = [traj.z, traj.a1.real, traj.a1.imag, traj.a3.real, traj.a3.imag]
    if traj.a2 is not None:
        names += ["re_A2", "im_A2"]
        columns += [traj.a2.real, traj.a2.imag]
    _write_csv(os.path.join(outdir, "trajectory.csv"), cfg_hash, names, *columns)
    _write_json(os.path.join(outdir, "simulate_summary.json"),
                {"eta": traj.efficiency, "steps": steps, "steps_taken": traj.steps,
                 "depleted": bool(sim["depleted"]),
                 "signal_pump_ratio": sim["signal_pump_ratio"] if sim["depleted"] else None,
                 "design": _design_block(design)},
                cfg_hash)
    print(f"eta = {traj.efficiency:.6f}")
    return 0


def cmd_sweep(args):
    cfg, cfg_hash = load_config(args.config)
    if args.name not in SWEEP_NAMES:
        raise ConfigError(
            f"unknown sweep {args.name!r}; valid sweeps: {', '.join(SWEEP_NAMES)}")
    outdir = args.out or cfg["output"]["dir"]
    # a design is read (and checked) before any output directory is made
    design = None if args.name in ("kappa-trace", "length") else _obtain_design(args, cfg)
    os.makedirs(outdir, exist_ok=True)

    if args.name == "kappa-trace":
        kwargs, search = _design_kwargs(cfg)
        result = optimize_kappa(kwargs["length"], target=kwargs["target"],
                                search_range=search, grid_n=kwargs["grid_n"])
        _write_csv(os.path.join(outdir, "kappa_trace.csv"), cfg_hash,
                   ["kappa_per_cm", "q_value"], result.trace_kappa / 100.0,
                   result.trace_q)
        _write_json(os.path.join(outdir, "kappa_trace_summary.json"),
                    {"kappa_per_cm": result.kappa_opt / 100.0,
                     "q_opt": result.q_opt, "target": result.target,
                     "at_boundary": result.at_boundary}, cfg_hash)
        print(f"kappa* = {result.kappa_opt / 100.0:.4f} /cm")
        return 0

    if args.name == "length":
        d, (_, _, lengths) = cfg["design"], _sweep_window(cfg, "length")
        sweeps = xp.efficiency_vs_length(target=d["target"], lengths=lengths,
                                         grid_n=d["grid_N"])
        _write_csv(os.path.join(outdir, "length.csv"), cfg_hash,
                   ["length_m", "eta_designed", "eta_chirp_baseline"],
                   lengths, sweeps.qa.efficiencies, sweeps.lz.efficiencies)
        _write_json(os.path.join(outdir, "length_summary.json"),
                    {"designed": sweeps.qa.summary, "chirp_baseline": sweeps.lz.summary},
                    cfg_hash)
        print(f"flatness = {sweeps.qa.summary['flatness_max_minus_min']:.2e}")
        return 0

    block = cfg["sweeps"][args.name]
    lo, hi, _ = _sweep_window(cfg, args.name)
    if args.name == "bandwidth":
        result = xp.bandwidth_sweep(design, lam_min=lo, lam_max=hi,
                                    samples=block["samples"])
        print(f"fwhm = {result.summary['fwhm_nm']:.1f} nm")
    elif args.name in ("period", "pump"):
        sweep = {"period": xp.robustness_period_sweep,
                 "pump": xp.robustness_pump_sweep}[args.name]
        result = sweep(design, rel_min=lo, rel_max=hi, samples=block["samples"])
        print(f"eta(0) = {result.summary['eta_at_zero']:.6f}")
    else:
        result = xp.signal_intensity_sweep(
            design, ratio_min=lo, ratio_max=hi, samples=block["samples"],
            steps=cfg["simulation"]["steps"])
        print(f"eta(ratio={block['ratio_max']}) = {result.summary['eta_at_max_ratio']:.4f}")

    names = [f"{result.parameter}_{result.unit}", "eta"]
    columns = [result.values, result.efficiencies]
    if result.estimates is not None:
        names.append("eta_first_order_estimate")
        columns.append(result.estimates)
    _write_csv(os.path.join(outdir, f"{args.name}.csv"), cfg_hash, names, *columns)
    _write_json(os.path.join(outdir, f"{args.name}_summary.json"),
                {"parameter": result.parameter, "unit": result.unit,
                 "samples": len(result.values), "summary": result.summary,
                 "design": _design_block(design)}, cfg_hash)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qasfg",
        description="Quasi-adiabatic poled-crystal design tool for complete "
                    "sum-frequency conversion")
    parser.add_argument("--version", action="version", version=f"qasfg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_design=False):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        if with_design:
            p.add_argument("--design", default=None,
                           help="design.json produced by the design command")

    common(sub.add_parser("design", help="optimize and export a crystal design"))
    common(sub.add_parser("simulate", help="propagate a design at its center wavelength"),
           with_design=True)
    p_sweep = sub.add_parser("sweep", help="run a named parameter sweep")
    p_sweep.add_argument("name", help=f"one of: {', '.join(SWEEP_NAMES)}")
    common(p_sweep, with_design=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"design": cmd_design, "simulate": cmd_simulate, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # numeric/internal failures
        print(f"internal error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
