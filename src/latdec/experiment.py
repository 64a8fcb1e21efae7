"""Experiment-file parsing: one YAML document describing a sweep.

Three sections: `design` (generator, shaping region, coding duration,
dither), `channel` (fading model, dimensions, noise, ARQ parameters), and
`sweep` (signal grid, rate, methods, stopping rule, seed, gate).

Each section is read through one table mapping every allowed key to its
reader.  This layer checks only what is specific to the YAML form: that
sections are mappings, that no key is unknown and no required key is
missing (both named with their dotted path), and that every value has its
type (a bool is not a number).  It also resolves `dither: "random"`, the
seed precedence (--seed, then the file, then 0), the gate's "exactly one
of alpha or d_target" and the `arq` mapping onto the channel's ARQ
fields.  Every value check, default and allowed-value list lives in the
config object a section builds (`ShapingRegion`, `LatticeDesign`,
`NoiseModel`, `ChannelConfig`, `SweepConfig`); absent keys are not
passed, and the objects' errors come back as `SchemaError` with the
section's path.  Everything is validated
before any computation starts.
"""

from __future__ import annotations

import numpy as np
import yaml

from .channels import ChannelConfig, NoiseModel, trial_rng
from .dmtsim import SweepConfig
from .errors import LatdecError, SchemaError
from .lattice import LatticeDesign, ShapingRegion, random_dither
from .reduction import gate_exponent_default

__all__ = ["load_experiment", "parse_experiment"]


def _section(node, path: str, table: dict, required=()) -> dict:
    """Read a mapping through `table` (key -> reader(value, path)).

    Returns the read values of the keys present; unknown and missing keys
    are errors."""
    if not isinstance(node, dict):
        raise SchemaError(f"{path}: expected a mapping, got {type(node).__name__}")
    unknown = sorted(map(str, set(node) - set(table)))
    if unknown:
        raise SchemaError(f"{path}: unknown keys {unknown}")
    for key in required:
        if key not in node:
            raise SchemaError(f"{path}: missing required key {key!r}")
    return {key: table[key](value, f"{path}.{key}") for key, value in node.items()}


def _build(cls, path: str, **kwargs):
    """cls(**kwargs), with its deliberate errors reported at `path`."""
    try:
        return cls(**kwargs)
    except (ValueError, LatdecError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _typed(kind, name: str):
    """Reader accepting instances of `kind` only (never a bool)."""
    def read(value, path: str):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise SchemaError(f"{path}: expected {name}")
        return value
    return read


_integer = _typed(int, "an integer")
_string = _typed(str, "a string")
_real = _typed((int, float), "a number")


def _number(value, path: str) -> float:
    return float(_real(value, path))


def _array(ndim: int):
    """Reader of a nonempty list (ndim 1) or list of rows (ndim 2) of numbers."""
    def read(value, path: str) -> np.ndarray:
        if not isinstance(value, list) or not value or (
                ndim == 2 and not all(isinstance(row, list) for row in value)):
            raise SchemaError(f"{path}: expected a nonempty list of "
                              + ("rows" if ndim == 2 else "numbers"))
        try:
            a = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: not numeric ({exc})") from exc
        if a.ndim != ndim:
            raise SchemaError(f"{path}: expected " + (
                "rows of equal length" if ndim == 2 else "a flat list"))
        return a
    return read


_vector, _matrix = _array(1), _array(2)


def _list(item):
    """Reader of a list whose entries `item` reads; returns a tuple."""
    def read(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected a list")
        return tuple(item(v, path) for v in value)
    return read


def _dither(value, path: str):
    # None and "random" pass through; "random" needs the seed and generator.
    return value if value is None or value == "random" else _vector(value, path)


_REGION = {"kind": _string, "half_widths": _vector, "radius": _number}
_NOISE = {"kind": _string, "sigma_e": _number, "scale": _number}
_ARQ = {"rounds": _integer, "x_thresh": _number}
_GATE = {"alpha": _number, "d_target": _number}


def _region(node, path: str) -> ShapingRegion:
    return _build(ShapingRegion, path, **_section(node, path, _REGION, ("kind",)))


def _noise(node, path: str) -> NoiseModel:
    return _build(NoiseModel, path, **_section({} if node is None else node,
                                               path, _NOISE))


def _arq(node, path: str) -> dict:
    return _section(node, path, _ARQ, required=tuple(_ARQ))


def _gate(node, path: str) -> dict:
    """The gate section as `SweepConfig` keywords (none without a gate)."""
    if node is None:
        return {}
    gate = _section(node, path, _GATE)
    if ("alpha" in gate) == ("d_target" in gate):
        raise SchemaError(f"{path}: give exactly one of alpha or d_target")
    return {"gate_alpha": gate["alpha"] if "alpha" in gate else _build(
        gate_exponent_default, f"{path}.d_target", d_target=gate["d_target"])}


_DESIGN = {"generator": _matrix, "region": _region, "coding_duration": _integer,
           "dither": _dither}
_CHANNEL = {"model": _string, "nt": _integer, "nr": _integer, "tones": _integer,
            "taps": _integer, "h_real": _matrix, "noise": _noise, "arq": _arq}
_SWEEP = {"rho_db": _list(_number), "r": _number, "methods": _list(_string),
          "min_errors": _integer, "max_trials": _integer, "seed": _integer,
          "gate": _gate}
_TOP = ("design", "channel", "sweep")


def parse_experiment(doc, seed_override: int | None = None,
                     source: str = "<config>") -> SweepConfig:
    """Validate a parsed YAML document and build the sweep configuration.

    Seed precedence: `seed_override` (the CLI's --seed), then the file's
    `sweep.seed`, then 0."""
    doc = _section(doc, source, dict.fromkeys(_TOP, lambda v, p: v), _TOP)
    sweep = _section(doc["sweep"], "sweep", _SWEEP, ("rho_db", "r", "methods"))
    sweep.update(sweep.pop("gate", {}))
    if seed_override is not None:
        sweep["seed"] = int(seed_override)
    sweep.setdefault("seed", 0)

    design = _section(doc["design"], "design", _DESIGN, ("generator", "region"))
    if isinstance(design.get("dither"), str):
        # One dither per experiment, derived from the experiment seed.
        design["dither"] = random_dither(design["generator"], 1.0,
                                         trial_rng(sweep["seed"], 0xD17, 0))
    channel = _section(doc["channel"], "channel", _CHANNEL, ("model",))
    channel.update({f"arq_{k}": v for k, v in channel.pop("arq", {}).items()})
    return _build(SweepConfig, "sweep",
                  design=_build(LatticeDesign, "design", **design),
                  channel=_build(ChannelConfig, "channel", **channel), **sweep)


def load_experiment(path: str, seed_override: int | None = None) -> SweepConfig:
    """Load and validate an experiment file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read experiment file ({exc.strerror})") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: invalid YAML ({exc})") from exc
    return parse_experiment(doc, seed_override=seed_override, source=path)
