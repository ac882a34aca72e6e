"""Command-line entry point: model / kernel / sm / eta / solve / verify.

Configuration precedence is CLI flags > config file > defaults; the fully
resolved configuration is echoed into the output directory next to a MANIFEST
listing sha256 checksums of every artifact (timestamps live only there, so
repeated runs of the same configuration produce byte-identical artifacts).

Exit codes: 0 success, 1 computation failure, 2 validation failure, refused
before any artifact: bad options or model files, a vertex set above the dense
kernel budget, a failed assumption gate.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import os
import sys
from datetime import datetime, timezone

from .kernel import KernelSizeError, log_time_grid
from .paramint import ParamIntegralError
from .solver import AssumptionGateError, SolverError

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_VALIDATION = 2

OUTDIR_ENV = "FRACTALHEAT_OUT"


class ValidationError(ValueError):
    pass


def _validated(parse):
    """An option parser whose failure on its text, a malformed value or an
    unknown preset, is a validation error (exit 2)."""
    @functools.wraps(parse)
    def checked(text, *args):
        try:
            return parse(text, *args)
        except (ValueError, SolverError, ParamIntegralError) as exc:
            raise ValidationError(f"bad value {text!r}: {exc}") from None
    return checked


@_validated
def parse_times(text: str):
    """Time grid syntax: 'a:b:logN' (N points per decade), 'a:b:linN', or a
    single positive number."""
    import numpy as np
    parts = text.split(":")
    if len(parts) == 1:
        t = float(parts[0])
        if t <= 0:
            raise ValidationError("time must be positive")
        return np.array([t])
    if len(parts) != 3:
        raise ValidationError(f"bad time grid {text!r}; use a:b:logN or a:b:linN")
    a, b = float(parts[0]), float(parts[1])
    if not 0 < a < b:
        raise ValidationError("time grid needs 0 < a < b")
    mode = parts[2]
    if mode.startswith("log"):
        return log_time_grid(a, b, int(mode[3:] or "20"))
    if mode.startswith("lin"):
        return np.linspace(a, b, max(2, int(mode[3:] or "16")))
    raise ValidationError(f"bad grid mode {mode!r}")


def _resolve_model(name: str):
    from .geometry import PRESET_NAMES, build_preset, load_ifs_file
    if name in PRESET_NAMES:
        return build_preset(name)
    if os.path.exists(name):
        try:
            return load_ifs_file(name)
        except ValueError as exc:       # GeometryError, or a malformed number
            raise ValidationError(f"bad model file {name!r}: {exc}") from None
    raise ValidationError(f"unknown model {name!r}: not a preset {PRESET_NAMES} "
                          "and not an IFS file path")


@_validated
def _parse_sigma(text: str, model, T: float):
    from .paramint import sigma_preset
    name = text.split(":", 1)[1] if text.startswith("preset:") else text
    return sigma_preset(name, model, T)


@_validated
def _parse_f(text: str, T: float):
    from .solver import f_preset
    name, colon, arg = text.partition(":")
    if colon and name in ("sin", "const"):
        return f_preset(name, c=float(arg), T=T)
    return f_preset(name, T=T)


@_validated
def _parse_u0(text: str, model, blowup: int):
    from .solver import u0_preset
    parts = text.split(":")
    name = parts[0]
    if name == "bump":
        center = model.fixed_points.mean(axis=0) * model.alpha ** blowup
        width = float(parts[2]) if len(parts) > 2 else 0.18
        return u0_preset("bump", center=center, width=width)
    return u0_preset(name)


@_validated
def _parse_base(text: str, seed: int):
    from .measure import BaseSM
    kind, _, arg = text.partition(":")
    if kind in ("gaussian", "gaussian_white"):
        return BaseSM("gaussian_white", seed=seed)
    if kind in ("stable", "symmetric_stable"):
        return BaseSM("symmetric_stable", seed=seed,
                      stable_index=float(arg) if arg else 1.5)
    if kind in ("atomic", "atomic_series"):
        atoms = []
        for tok in (arg or "0.5=1.0").split(";"):
            pos, coef = tok.split("=")
            atoms.append((float(pos), float(coef)))
        return BaseSM("atomic_series", seed=seed, atoms=tuple(atoms))
    raise ValidationError(f"unknown base measure {text!r}")


# types of the shared flags; they default to None so the config file can fill them
_COMMON = {
    "model": str, "level": int, "blowup": int, "depth": int, "seed": int,
    "boundary": str, "out": str, "base": str,
}


def _add_common(p: argparse.ArgumentParser, keys):
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", type=_COMMON[key], default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fractalheat",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="INI config file (flags override it)")
    sub = ap.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("model", help="build a model and export its vertex set")
    _add_common(pm, ["model", "level", "blowup", "out"])

    pk = sub.add_parser("kernel", help="heat kernel table on a time grid")
    _add_common(pk, ["model", "level", "blowup", "boundary", "out"])
    pk.add_argument("--times", default=None)
    pk.add_argument("--format", choices=["csv", "binary"], default=None)
    pk.add_argument("--x-ids", default=None, help="comma list of row ids to export")

    psm = sub.add_parser("sm", help="stochastic measure operations")
    psm.add_argument("action", choices=["sample"])
    _add_common(psm, ["model", "blowup", "depth", "seed", "base", "out"])

    pe = sub.add_parser("eta", help="stochastic parameter integral on a z grid")
    _add_common(pe, ["model", "level", "blowup", "depth", "seed", "base",
                     "boundary", "out"])
    pe.add_argument("--sigma", default=None)
    pe.add_argument("--times", default=None)
    pe.add_argument("--T", type=float, default=None)

    ps = sub.add_parser("solve", help="Picard solve of the mild equation")
    _add_common(ps, ["model", "level", "blowup", "depth", "seed", "base",
                     "boundary", "out"])
    ps.add_argument("--sigma", default=None)
    ps.add_argument("--f", default=None)
    ps.add_argument("--u0", default=None)
    ps.add_argument("--T", type=float, default=None)
    ps.add_argument("--steps", type=int, default=None)
    ps.add_argument("--override-gate", action="store_true", default=None)

    pv = sub.add_parser("verify", help="run the named check suite")
    pv.add_argument("--suite", default=None,
                    help="quick, full, or comma list of check names (may be empty)")
    pv.add_argument("--out", default=None)
    return ap


_DEFAULTS = {
    "model": "vicsek", "level": 3, "blowup": 0, "depth": 5, "seed": 0,
    "boundary": "reflecting", "base": "gaussian", "sigma": "smooth",
    "f": "sin:0.5", "u0": "bump", "T": 1.0, "steps": 64, "times": None,
    "format": "csv", "x_ids": None, "suite": "quick", "out": None,
    "override_gate": False,
}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit CLI flags."""
    cfg = dict(_DEFAULTS)
    if args.config:
        cp = configparser.ConfigParser()
        if not cp.read(args.config):
            raise ValidationError(f"cannot read config file {args.config!r}")
        # configparser lowercases option names, so keys match case-blind
        names = {k.lower(): k for k in cfg}
        for section in cp.sections():
            for key, val in cp[section].items():
                key = key.replace("-", "_")
                if key not in names:
                    raise ValidationError(f"unknown config key {key!r}")
                cfg[names[key]] = val
    for key, val in vars(args).items():
        if val is not None:
            cfg[key] = val
    # normalize types that may arrive as strings from the config file
    for key in ("level", "blowup", "depth", "seed", "steps"):
        cfg[key] = int(cfg[key])
    for key in ("T",):
        cfg[key] = float(cfg[key])
    gate = str(cfg["override_gate"]).lower()
    if gate not in _BOOLEANS:
        raise ValidationError(f"override_gate={gate!r} is not true/false, yes/no or 1/0")
    cfg["override_gate"] = _BOOLEANS[gate]
    for key, rng in (("level", (0, 8)), ("blowup", (0, 4)), ("depth", (0, 12)),
                     ("steps", (2, 4096))):
        if not rng[0] <= cfg[key] <= rng[1]:
            raise ValidationError(f"{key}={cfg[key]} outside {rng}")
    if cfg["T"] <= 0:
        raise ValidationError("T must be positive")
    if cfg["command"] in ("sm", "eta", "solve") and cfg["depth"] < cfg["blowup"]:
        raise ValidationError(f"depth={cfg['depth']} below blowup={cfg['blowup']}")
    if cfg["boundary"] not in ("reflecting", "dirichlet"):
        raise ValidationError(f"unknown boundary {cfg['boundary']!r}")
    if cfg["format"] not in ("csv", "binary"):
        raise ValidationError(f"unknown format {cfg['format']!r}")
    if cfg["x_ids"]:
        text = cfg["x_ids"].strip()
        if text.startswith("[") and text.endswith("]"):    # echoed list form
            text = text[1:-1]
        try:
            cfg["x_ids"] = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise ValidationError(
                f"x_ids={cfg['x_ids']!r} is not a comma list of integers") from None
    else:
        cfg["x_ids"] = None
    return cfg


def _outdir(cfg: dict) -> str:
    out = cfg.get("out") or os.environ.get(OUTDIR_ENV) or "fractalheat_out"
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(cfg: dict, out: str) -> str:
    path = os.path.join(out, "config_resolved.ini")
    cp = configparser.ConfigParser()
    cp["run"] = {k: repr(v) if not isinstance(v, str) else v
                 for k, v in sorted(cfg.items()) if v is not None and k in _DEFAULTS}
    with open(path, "w", encoding="utf-8") as f:
        cp.write(f)
    return path


def _write_manifest(out: str, files) -> str:
    path = os.path.join(out, "MANIFEST.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write("# sha256  bytes  written_utc  filename\n")
        for name in sorted(files):
            full = os.path.join(out, name)
            with open(full, "rb") as fh:
                h = hashlib.file_digest(fh, "sha256").hexdigest()
            stamp = datetime.now(timezone.utc).isoformat()
            f.write(f"{h}  {os.path.getsize(full)}  {stamp}  {name}\n")
    return path


def cmd_model(cfg: dict) -> list[str]:
    from .geometry import measure_weights, vertex_set
    model = _resolve_model(cfg["model"])
    vs = vertex_set(model, cfg["level"], cfg["blowup"])
    out = _outdir(cfg)
    vs.to_csv(os.path.join(out, "vertices.csv"), measure_weights(vs))
    with open(os.path.join(out, "model.txt"), "w", encoding="utf-8") as f:
        f.write(f"name {model.name}\nN {model.N}\nalpha {model.alpha!r}\n"
                f"d_f {model.d_f!r}\nd_s {model.d_s!r}\nd_w {model.d_w!r}\n"
                f"time_scale {model.time_scale!r}\n"
                f"assumption1_k {model.assumption1_k}\n"
                f"vertices {vs.n_vertices}\nedges {len(vs.edges)}\n")
    return ["vertices.csv", "model.txt"]


def cmd_kernel(cfg: dict) -> list[str]:
    from .geometry import vertex_set
    from .kernel import DENSE_TABLE_LIMIT, build_generator, kernel, scaling_window
    model = _resolve_model(cfg["model"])
    times = parse_times(cfg["times"]) if cfg["times"] else None
    lo, hi = scaling_window(model, cfg["level"], cfg["blowup"])
    if times is None and lo >= hi:
        raise ValidationError(f"the default time grid, the scaling window [{lo:g}, {hi:g}], "
                              f"is empty at level {cfg['level']}; pass --times")
    vs = vertex_set(model, cfg["level"], cfg["blowup"])
    gen = build_generator(vs, boundary=cfg["boundary"])
    x_ids = cfg["x_ids"]
    V = len(gen.kept)
    if x_ids is not None and not all(0 <= x < V for x in x_ids):
        raise ValidationError(f"x_ids={x_ids} outside the kernel ids [0, {V})")
    if cfg["format"] == "binary" and V > DENSE_TABLE_LIMIT:
        raise ValidationError(f"V = {V} vertices is above the binary export "
                              f"limit {DENSE_TABLE_LIMIT}")
    tab = kernel(gen, times=times)
    out = _outdir(cfg)
    files = []
    if cfg["format"] == "binary":
        tab.to_binary(os.path.join(out, "kernel.bin"))
        files.append("kernel.bin")
    else:
        if x_ids is None and tab.kernel.n_vertices > DENSE_TABLE_LIMIT:
            x_ids = list(range(8))
        tab.to_csv(os.path.join(out, "kernel.csv"), x_ids=x_ids)
        files.append("kernel.csv")
    tab.diag_csv(os.path.join(out, "kernel_diag.csv"))
    files.append("kernel_diag.csv")
    return files


def cmd_sm(cfg: dict) -> list[str]:
    from .measure import realize, write_realization
    model = _resolve_model(cfg["model"])
    base = _parse_base(cfg["base"], cfg["seed"])
    real = realize(base, model, cfg["blowup"], cfg["depth"])
    out = _outdir(cfg)
    write_realization(real, os.path.join(out, "realization.txt"))
    return ["realization.txt"]


def cmd_eta(cfg: dict) -> list[str]:
    import numpy as np

    from .geometry import vertex_set
    from .kernel import HeatKernel, build_generator, scaling_window
    from .measure import realize
    from .paramint import HFunction, eval_eta
    model = _resolve_model(cfg["model"])
    T = cfg["T"]
    sigma = _parse_sigma(cfg["sigma"], model, T)
    if not sigma.smooth_on(model):
        raise ValidationError(f"sigma {sigma.name!r}: Hoelder exponent {sigma.holder_exp} "
                              f"is not above d_f/2 = {model.d_f / 2:.4f}")
    base = _parse_base(cfg["base"], cfg["seed"])
    if cfg["times"]:
        times = parse_times(cfg["times"])
    else:
        lo, hi = scaling_window(model, cfg["level"], cfg["blowup"])
        times = np.geomspace(lo, min(hi, T), 8)
    if times.max() > T:
        raise ValidationError(f"times reach {times.max():g}, beyond the horizon T = {T:g}")
    vs = vertex_set(model, cfg["level"], cfg["blowup"])
    kern = HeatKernel(build_generator(vs, boundary=cfg["boundary"]))
    hf = HFunction(kern, sigma, T=T)
    real = realize(base, model, cfg["blowup"], cfg["depth"])
    ev = eval_eta(hf, real, times, n_max=cfg["depth"])
    out = _outdir(cfg)
    ev.to_csv(os.path.join(out, "eta.csv"))
    ev.diagnostics_csv(os.path.join(out, "eta_convergence.csv"))
    return ["eta.csv", "eta_convergence.csv"]


def cmd_solve(cfg: dict) -> list[str]:
    from .measure import write_realization
    from .solver import ProblemSpec, picard_solve, prepare
    model = _resolve_model(cfg["model"])
    T = cfg["T"]
    spec = ProblemSpec(
        model, level=cfg["level"], blowup=cfg["blowup"], boundary=cfg["boundary"],
        T=T, n_steps=cfg["steps"],
        u0=_parse_u0(cfg["u0"], model, cfg["blowup"]),
        f=_parse_f(cfg["f"], T),
        sigma=_parse_sigma(cfg["sigma"], model, T),
        base=_parse_base(cfg["base"], cfg["seed"]),
        depth=cfg["depth"], override_gate=bool(cfg["override_gate"]))
    prob = prepare(spec)
    sol = picard_solve(prob)
    out = _outdir(cfg)
    sol.to_csv(os.path.join(out, "solution.csv"))
    sol.diagnostics_csv(os.path.join(out, "diagnostics.csv"))
    write_realization(prob.realization, os.path.join(out, "realization.txt"))
    with open(os.path.join(out, "gate.txt"), "w", encoding="utf-8") as f:
        f.write(str(prob.gate) + "\n")
    files = ["solution.csv", "diagnostics.csv", "realization.txt", "gate.txt"]
    if not sol.converged:
        raise FailedWithArtifacts(
            f"no convergence in {sol.iterations} Picard sweeps; last sweep "
            f"sup g_n = {float(sol.g_history[-1].max()):.3e}", files)
    return files


class FailedWithArtifacts(RuntimeError):
    """The result failed a check (a verify suite, a Picard convergence) after
    its artifacts were written."""

    def __init__(self, message, files):
        super().__init__(message)
        self.files = files


def cmd_verify(cfg: dict) -> list[str]:
    from .verify import run_verify
    report = run_verify(cfg["suite"])
    out = _outdir(cfg)
    report.to_text(os.path.join(out, "report.txt"))
    report.to_csv(os.path.join(out, "report.csv"))
    print(report.summary())
    if not report.passed:
        raise FailedWithArtifacts("verification suite failed",
                                  ["report.txt", "report.csv"])
    return ["report.txt", "report.csv"]


_HANDLERS = {
    "model": cmd_model,
    "kernel": cmd_kernel,
    "sm": cmd_sm,
    "eta": cmd_eta,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = resolve_config(args)
        handler = _HANDLERS[args.command]
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        files = handler(cfg)
    except (ValidationError, KernelSizeError, AssumptionGateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FailedWithArtifacts as exc:
        print(f"error: {exc}", file=sys.stderr)
        out = _outdir(cfg)
        exc.files.append(os.path.basename(_echo_config(cfg, out)))
        _write_manifest(out, exc.files)
        return EXIT_COMPUTE
    except Exception as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    out = _outdir(cfg)
    files.append(os.path.basename(_echo_config(cfg, out)))
    _write_manifest(out, files)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
