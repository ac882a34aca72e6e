"""Command-line entry point: model / kernel / sm / eta / solve / verify.

Every option is declared once, in `_OPTIONS`.  Its text is laid over as
defaults < config file < CLI flags, then parsed once, in table order, for
every subcommand.  The resolved texts are echoed into the output directory
next to a MANIFEST listing sha256 checksums of every artifact (timestamps
live only there, so repeated runs of the same configuration produce
byte-identical artifacts).

Exit codes: 0 success, 1 computation failure, 2 validation failure, refused
before any artifact: bad options or model files, a noise depth above the cell
budget, a vertex set above the dense kernel budget, a failed assumption gate.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import math
import os
import sys
from datetime import datetime, timezone
from typing import Callable, NamedTuple

from .geometry import MAX_CELLS
from .kernel import KernelSizeError, log_time_grid, scaling_window
from .paramint import ParamIntegralError
from .solver import AssumptionGateError, ProblemSpec, SolverError, bump_center

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_VALIDATION = 2

OUTDIR_ENV = "FRACTALHEAT_OUT"


class ValidationError(ValueError):
    pass


def _int(text: str, lo: int, hi: float = math.inf) -> int:
    value = int(text)
    if not lo <= value <= hi:
        raise ValidationError(f"{value} outside [{lo}, {hi}]")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{text!r} is not a positive finite number")
    return value


def _arity(name: str, args: list, most: dict) -> None:
    """Refuse a preset spec with more ':' arguments than its name reads."""
    if len(args) > most.get(name, 0):
        raise ValidationError(f"{name!r} takes at most {most.get(name, 0)} ':' argument(s)")


def parse_times(text: str):
    """Time grid syntax: 'a:b:logN' (N >= 1 points per decade), 'a:b:linN'
    (N >= 2 points), or a single number; every number positive and finite."""
    import numpy as np
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([_positive(text)])
    if len(parts) != 3:
        raise ValidationError(f"bad time grid {text!r}; use a:b:logN or a:b:linN")
    a, b = _positive(parts[0]), _positive(parts[1])
    if not a < b:
        raise ValidationError("time grid needs 0 < a < b")
    mode, count = parts[2][:3], parts[2][3:]
    if mode == "log":
        return log_time_grid(a, b, _int(count or "20", 1))
    if mode == "lin":
        return np.linspace(a, b, _int(count or "16", 2))
    raise ValidationError(f"bad grid mode {parts[2]!r}")


# The option parsers: (text, the values parsed above it in _OPTIONS) -> value.

def _model(text: str, cfg: dict):
    from .geometry import PRESET_NAMES, build_preset, load_ifs_file
    if text in PRESET_NAMES:
        return build_preset(text)
    if os.path.exists(text):
        return load_ifs_file(text)
    raise ValidationError(f"not a preset {PRESET_NAMES} and not an IFS file path")


_BASE_ALIASES = {"gaussian": "gaussian_white", "stable": "symmetric_stable",
                 "atomic": "atomic_series"}


def _base(text: str, cfg: dict):
    from .measure import BaseSM
    kind, *args = text.split(":")
    kind = _BASE_ALIASES.get(kind, kind)
    _arity(kind, args, {"symmetric_stable": 1, "atomic_series": 1})
    params = {}
    if kind == "symmetric_stable" and args:
        params["stable_index"] = float(args[0])
    if kind == "atomic_series":
        params["atoms"] = tuple(tuple(map(float, tok.split("=")))
                                for tok in (args or ["0.5=1.0"])[0].split(";"))
    return BaseSM(kind, seed=cfg["seed"], **params)


def _sigma(text: str, cfg: dict):
    from .paramint import sigma_preset
    return sigma_preset(text.removeprefix("preset:"), cfg["model"], cfg["T"])


def _f(text: str, cfg: dict):
    from .solver import f_preset
    name, *args = text.split(":")
    _arity(name, args, {"sin": 1, "const": 1})
    return f_preset(name, *map(float, args), T=cfg["T"])


def _u0(text: str, cfg: dict):
    from .solver import u0_preset
    name, *args = text.split(":")
    _arity(name, args, {"bump": 2})
    if name != "bump":
        return u0_preset(name)
    if args[:1] not in ([], ["center"]):
        raise ValidationError("use bump[:center[:<width>]]")
    return u0_preset(name, bump_center(cfg["model"], cfg["blowup"]), *map(float, args[1:]))


def _choice(*names: str):
    def parse(text: str, cfg: dict) -> str:
        if text not in names:
            raise ValidationError(f"not one of {names}")
        return text
    return parse


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(text: str, cfg: dict) -> bool:
    if text.lower() not in _BOOLEANS:
        raise ValidationError("not true/false, yes/no or 1/0")
    return _BOOLEANS[text.lower()]


def _x_ids(text: str, cfg: dict):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):    # the list form earlier versions echoed
        text = text[1:-1]
    return [int(tok) for tok in text.split(",")] if text else None


def _suite(text: str, cfg: dict) -> str:
    from .verify import check_names
    check_names(text)
    return text


class _Option(NamedTuple):
    default: str | None      # text; None leaves the option unset
    parse: Callable          # (text, the values parsed above it) -> value
    commands: str            # the subcommands with a --flag for it
    help: str | None = None
    const: str | None = None  # a flag without a value that sets this text


# The run defaults shared with the library, as text.
_SPEC = {f.name: str(f.default) for f in dataclasses.fields(ProblemSpec)}

# Parsed in this order; a parser may read the values above it: base reads
# seed, sigma and f read model and T, u0 reads model and blowup.
_OPTIONS = {
    "model": _Option("vicsek", _model, "model kernel sm eta solve"),
    "level": _Option(_SPEC["level"], lambda text, cfg: _int(text, 0, 8),
                     "model kernel eta solve"),
    "blowup": _Option(_SPEC["blowup"], lambda text, cfg: _int(text, 0, 4),
                      "model kernel sm eta solve"),
    "depth": _Option(_SPEC["depth"], lambda text, cfg: _int(text, 0, 12), "sm eta solve"),
    "seed": _Option("0", lambda text, cfg: _int(text, 0), "sm eta solve"),
    "base": _Option("gaussian", _base, "sm eta solve"),
    "boundary": _Option(_SPEC["boundary"], _choice("reflecting", "dirichlet"),
                        "kernel eta solve"),
    "out": _Option(None, lambda text, cfg: text, "model kernel sm eta solve verify"),
    "T": _Option(_SPEC["T"], lambda text, cfg: _positive(text), "eta solve"),
    "sigma": _Option("smooth", _sigma, "eta solve"),
    "f": _Option("sin:0.5", _f, "solve"),
    "u0": _Option("bump", _u0, "solve"),
    "steps": _Option(_SPEC["n_steps"], lambda text, cfg: _int(text, 2, 4096), "solve"),
    "override_gate": _Option(_SPEC["override_gate"], _boolean, "solve", const="True"),
    "times": _Option(None, lambda text, cfg: parse_times(text), "kernel eta"),
    "format": _Option("csv", _choice("csv", "binary"), "kernel"),
    "x_ids": _Option(None, _x_ids, "kernel", help="comma list of row ids to export"),
    "suite": _Option("quick", _suite, "verify",
                     help="quick, full, or comma list of check names (may be empty)"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fractalheat",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="INI config file (flags override it)")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        if command == "sm":
            p.add_argument("action", choices=["sample"])
        for key, opt in _OPTIONS.items():
            if command in opt.commands.split():
                switch = {"action": "store_const", "const": opt.const} if opt.const else {}
                p.add_argument(f"--{key.replace('_', '-')}", help=opt.help, **switch)
    return ap


def resolve_config(args: argparse.Namespace) -> tuple[dict, dict]:
    """The option texts, defaults < config file < explicit CLI flags, and
    their values, each parsed once in table order."""
    texts = {key: opt.default for key, opt in _OPTIONS.items()}
    if args.config:
        cp = configparser.ConfigParser(interpolation=None)   # texts as written, '%' too
        try:
            if not cp.read(args.config):
                raise ValidationError(f"cannot read config file {args.config!r}")
        except configparser.Error as exc:
            raise ValidationError(f"malformed config file {args.config!r}: {exc}") from None
        # configparser lowercases option names, so keys match case-blind
        names = {k.lower(): k for k in _OPTIONS}
        for section in cp.sections():
            for key, val in cp[section].items():
                key = key.replace("-", "_")
                if key not in names:
                    raise ValidationError(f"unknown config key {key!r}")
                texts[names[key]] = val
    for key in _OPTIONS:
        if getattr(args, key, None) is not None:
            texts[key] = getattr(args, key)
    cfg = {}
    for key, opt in _OPTIONS.items():
        text = texts[key]
        try:
            cfg[key] = None if text is None else opt.parse(text, cfg)
        except (ValueError, SolverError, ParamIntegralError) as exc:
            raise ValidationError(f"bad {key} {text!r}: {exc}") from None
    return texts, cfg


def _outdir(cfg: dict) -> str:
    out = cfg.get("out") or os.environ.get(OUTDIR_ENV) or "fractalheat_out"
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(texts: dict, out: str) -> str:
    path = os.path.join(out, "config_resolved.ini")
    cp = configparser.ConfigParser(interpolation=None)
    cp["run"] = {k: v for k, v in sorted(texts.items()) if v is not None}
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


def _check_level(cfg: dict) -> None:
    if cfg["model"].N ** cfg["level"] > MAX_CELLS:
        raise ValidationError(f"level={cfg['level']} needs more than {MAX_CELLS} cells")


def _check_depth(cfg: dict) -> None:
    if cfg["depth"] < cfg["blowup"]:
        raise ValidationError(f"depth={cfg['depth']} below blowup={cfg['blowup']}")
    if cfg["model"].N ** cfg["depth"] > MAX_CELLS:
        raise ValidationError(f"depth={cfg['depth']} needs more than {MAX_CELLS} noise cells")


def cmd_model(cfg: dict) -> list[str]:
    """build a model and export its vertex set"""
    from .geometry import vertex_set
    _check_level(cfg)
    model = cfg["model"]
    vs = vertex_set(model, cfg["level"], cfg["blowup"])
    out = _outdir(cfg)
    vs.to_csv(os.path.join(out, "vertices.csv"))
    with open(os.path.join(out, "model.txt"), "w", encoding="utf-8") as f:
        f.write(f"name {model.name}\nN {model.N}\nalpha {model.alpha!r}\n"
                f"d_f {model.d_f!r}\nd_s {model.d_s!r}\nd_w {model.d_w!r}\n"
                f"time_scale {model.time_scale!r}\n"
                f"assumption1_k {model.assumption1_k}\n"
                f"vertices {vs.n_vertices}\nedges {len(vs.edges)}\n")
    return ["vertices.csv", "model.txt"]


def _default_window(cfg: dict, T: float = math.inf) -> tuple[float, float]:
    """The scaling window up to T, the default time grid's span; refused if empty."""
    lo, hi = scaling_window(cfg["model"], cfg["level"], cfg["blowup"])
    hi = min(hi, T)
    if lo >= hi:
        raise ValidationError(f"the default time grid, the scaling window [{lo:g}, {hi:g}], "
                              f"is empty at level {cfg['level']}; pass --times")
    return lo, hi


def cmd_kernel(cfg: dict) -> list[str]:
    """heat kernel table on a time grid"""
    from .geometry import vertex_set
    from .kernel import DENSE_TABLE_LIMIT, build_generator, kernel
    _check_level(cfg)
    if cfg["times"] is None:
        _default_window(cfg)
    vs = vertex_set(cfg["model"], cfg["level"], cfg["blowup"])
    gen = build_generator(vs, boundary=cfg["boundary"])
    x_ids = cfg["x_ids"]
    V = len(gen.kept)
    if x_ids is not None and not all(0 <= x < V for x in x_ids):
        raise ValidationError(f"x_ids={x_ids} outside the kernel ids [0, {V})")
    if cfg["format"] == "binary" and V > DENSE_TABLE_LIMIT:
        raise ValidationError(f"V = {V} vertices is above the binary export "
                              f"limit {DENSE_TABLE_LIMIT}")
    tab = kernel(gen, times=cfg["times"])
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
    """stochastic measure operations"""
    from .measure import realize, write_realization
    _check_depth(cfg)
    real = realize(cfg["base"], cfg["model"], cfg["blowup"], cfg["depth"])
    out = _outdir(cfg)
    write_realization(real, os.path.join(out, "realization.txt"))
    return ["realization.txt"]


def cmd_eta(cfg: dict) -> list[str]:
    """stochastic parameter integral on a z grid"""
    import numpy as np

    from .geometry import vertex_set
    from .kernel import HeatKernel, build_generator
    from .measure import realize
    from .paramint import HFunction, eval_eta
    _check_level(cfg)
    _check_depth(cfg)
    model, T, sigma, times = cfg["model"], cfg["T"], cfg["sigma"], cfg["times"]
    if not sigma.smooth_on(model):
        raise ValidationError(f"sigma {sigma.name!r}: Hoelder exponent {sigma.holder_exp} "
                              f"is not above d_f/2 = {model.d_f / 2:.4f}")
    if times is None:
        times = np.geomspace(*_default_window(cfg, T), 8)
    if times.max() > T:
        raise ValidationError(f"times reach {times.max():g}, beyond the horizon T = {T:g}")
    vs = vertex_set(model, cfg["level"], cfg["blowup"])
    kern = HeatKernel(build_generator(vs, boundary=cfg["boundary"]))
    hf = HFunction(kern, sigma, T=T)
    real = realize(cfg["base"], model, cfg["blowup"], cfg["depth"])
    ev = eval_eta(hf, real, times, n_max=cfg["depth"])
    out = _outdir(cfg)
    ev.to_csv(os.path.join(out, "eta.csv"))
    ev.diagnostics_csv(os.path.join(out, "eta_convergence.csv"))
    return ["eta.csv", "eta_convergence.csv"]


def cmd_solve(cfg: dict) -> list[str]:
    """Picard solve of the mild equation"""
    from .measure import write_realization
    from .solver import picard_solve, prepare
    _check_level(cfg)
    _check_depth(cfg)
    spec = ProblemSpec(
        cfg["model"], level=cfg["level"], blowup=cfg["blowup"], boundary=cfg["boundary"],
        T=cfg["T"], n_steps=cfg["steps"], u0=cfg["u0"], f=cfg["f"], sigma=cfg["sigma"],
        base=cfg["base"], depth=cfg["depth"], override_gate=cfg["override_gate"])
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
            f"no convergence in {sol.iterations} Picard sweeps; worst last-sweep "
            f"sup g_n of a window = {max(float(h[-1].max()) for h in sol.g_history):.3e}",
            files)
    return files


class FailedWithArtifacts(RuntimeError):
    """The result failed a check (a verify suite, a Picard convergence) after
    its artifacts were written."""

    def __init__(self, message, files):
        super().__init__(message)
        self.files = files


def cmd_verify(cfg: dict) -> list[str]:
    """run the named check suite"""
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
        texts, cfg = resolve_config(args)
        files = _HANDLERS[args.command](cfg)
    except (ValidationError, KernelSizeError, AssumptionGateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FailedWithArtifacts as exc:
        print(f"error: {exc}", file=sys.stderr)
        out = _outdir(cfg)
        exc.files.append(os.path.basename(_echo_config(texts, out)))
        _write_manifest(out, exc.files)
        return EXIT_COMPUTE
    except Exception as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    out = _outdir(cfg)
    files.append(os.path.basename(_echo_config(texts, out)))
    _write_manifest(out, files)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
