"""Experiment-file parsing: one YAML document describing a sweep.

Three sections: `design` (generator, shaping region, coding duration,
dither), `channel` (fading model, dimensions, noise, ARQ parameters), and
`sweep` (signal grid, rate, methods, stopping rule, seed, gate).

This layer checks only the file's structure: that sections are mappings
and list values are lists, that no key is unknown and no required key is
missing (both named with their dotted path), and that the gate is given
exactly one way.  It also resolves the seed precedence (--seed, then the
file, then 0; the file's seed is checked even when --seed replaces it),
`dither: "random"` and the `arq` mapping onto the channel's ARQ fields.
Every leaf value is passed unchanged to the config object its section
builds (`ShapingRegion`, `LatticeDesign`, `NoiseModel`, `ChannelConfig`,
`SweepConfig`), which checks its type and range for files and library
callers alike; absent keys are not passed, and the objects' errors come
back as `SchemaError` with the section's path.  Everything is validated
before any computation starts.
"""

from __future__ import annotations

import yaml

from .channels import ChannelConfig, NoiseModel, trial_rng
from .dmtsim import SweepConfig
from .errors import LatdecError, SchemaError
from .lattice import LatticeDesign, ShapingRegion, random_dither
from .numkernel import as_integer, as_matrix
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


def _build(cls, path: str, *args, **kwargs):
    """cls(*args, **kwargs), with its deliberate errors reported at `path`."""
    try:
        return cls(*args, **kwargs)
    except (ValueError, LatdecError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _leaf(value, path: str):
    """A value the config object that receives it checks."""
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    return value


_REGION = dict.fromkeys(("kind", "half_widths", "radius"), _leaf)
_NOISE = dict.fromkeys(("kind", "sigma_e", "scale"), _leaf)
_ARQ = dict.fromkeys(("rounds", "x_thresh"), _leaf)
_GATE = dict.fromkeys(("alpha", "d_target"), _leaf)


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
        gate_exponent_default, f"{path}.d_target", gate["d_target"])}


_DESIGN = {"generator": _leaf, "region": _region, "coding_duration": _leaf,
           "dither": _leaf}
_CHANNEL = {"model": _leaf, "nt": _leaf, "nr": _leaf, "tones": _leaf,
            "taps": _leaf, "h_real": _leaf, "noise": _noise, "arq": _arq}
_SWEEP = {"rho_db": _list, "r": _leaf, "methods": _list, "min_errors": _leaf,
          "max_trials": _leaf, "seed": _leaf, "gate": _gate}
_TOP = ("design", "channel", "sweep")


def parse_experiment(doc, seed_override: int | None = None,
                     source: str = "<config>") -> SweepConfig:
    """Validate a parsed YAML document and build the sweep configuration.

    Seed precedence: `seed_override` (the CLI's --seed), then the file's
    `sweep.seed`, then 0."""
    doc = _section(doc, source, dict.fromkeys(_TOP, _leaf), _TOP)
    sweep = _section(doc["sweep"], "sweep", _SWEEP, ("rho_db", "r", "methods"))
    sweep.update(sweep.pop("gate", {}))
    seed = _build(as_integer, "sweep.seed", sweep.get("seed", 0), "seed")
    sweep["seed"] = seed if seed_override is None else _build(
        as_integer, "seed_override", seed_override, "seed")

    design = _section(doc["design"], "design", _DESIGN, ("generator", "region"))
    if design.get("dither") == "random":
        # One dither per experiment, derived from the experiment seed.
        generator = _build(as_matrix, "design", design["generator"], "generator")
        design["dither"] = random_dither(generator, 1.0,
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
