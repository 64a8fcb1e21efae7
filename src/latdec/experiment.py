"""Experiment-file parsing: one YAML document describing a sweep.

Three sections: `design` (generator, shaping region, coding duration,
dither), `channel` (fading model, dimensions, noise, ARQ parameters), and
`sweep` (signal grid, rate, methods, stopping rule, seed, gate).  The
schema is strict - unknown keys anywhere are errors, with the offending
path in the message - and everything is validated before any computation
starts.
"""

from __future__ import annotations

import os

import numpy as np
import yaml

from .channels import CHANNEL_MODELS, ChannelConfig, NoiseModel, trial_rng
from .decoders import METHODS
from .dmtsim import SweepConfig
from .errors import SchemaError
from .lattice import LatticeDesign, ShapingRegion, random_dither
from .reduction import gate_exponent_default

__all__ = ["load_experiment", "parse_experiment", "ENV_SEED"]

ENV_SEED = "LATDEC_SEED"

_DESIGN_KEYS = {"generator", "region", "coding_duration", "dither"}
_REGION_KEYS = {"kind", "half_widths", "radius"}
_CHANNEL_KEYS = {"model", "nt", "nr", "tones", "taps", "noise", "arq", "h_real"}
_NOISE_KEYS = {"kind", "sigma_e", "scale"}
_ARQ_KEYS = {"rounds", "x_thresh"}
_SWEEP_KEYS = {"rho_db", "r", "methods", "min_errors", "max_trials", "seed",
               "gate", "integer_nesting", "node_budget"}
_GATE_KEYS = {"alpha", "d_target", "delta"}


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set, path: str):
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise SchemaError(f"{path}: unknown keys {unknown}")


def _get(node: dict, key: str, path: str, required: bool = True, default=None):
    if key not in node:
        if required:
            raise SchemaError(f"{path}: missing required key {key!r}")
        return default
    return node[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(
            isinstance(row, list) for row in value):
        raise SchemaError(f"{path}: expected a list of rows")
    try:
        m = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not numeric ({exc})") from exc
    if m.ndim != 2:
        raise SchemaError(f"{path}: rows have uneven lengths")
    return m


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a nonempty list of numbers")
    try:
        v = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not numeric ({exc})") from exc
    if v.ndim != 1:
        raise SchemaError(f"{path}: expected a flat list")
    return v


def _parse_region(node, path: str) -> ShapingRegion:
    node = _require_mapping(node, path)
    _check_keys(node, _REGION_KEYS, path)
    kind = _get(node, "kind", path)
    if kind not in ("box", "ball"):
        raise SchemaError(f"{path}.kind: expected 'box' or 'ball', got {kind!r}")
    other = "radius" if kind == "box" else "half_widths"
    if other in node:
        raise SchemaError(f"{path}: {kind} region takes no {other}")
    try:
        if kind == "box":
            return ShapingRegion.box(_vector(_get(node, "half_widths", path),
                                             f"{path}.half_widths"))
        return ShapingRegion.ball(_number(_get(node, "radius", path), f"{path}.radius"))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_design(node, path: str, seed: int) -> LatticeDesign:
    node = _require_mapping(node, path)
    _check_keys(node, _DESIGN_KEYS, path)
    gen = _matrix(_get(node, "generator", path), f"{path}.generator")
    region = _parse_region(_get(node, "region", path), f"{path}.region")
    duration = _integer(_get(node, "coding_duration", path, required=False,
                             default=1), f"{path}.coding_duration")
    dither_node = _get(node, "dither", path, required=False)
    dither = None
    if dither_node is not None:
        if dither_node == "random":
            # One dither per experiment, derived from the experiment seed.
            dither = random_dither(gen, 1.0, trial_rng(seed, 0xD17, 0))
        else:
            dither = _vector(dither_node, f"{path}.dither")
    try:
        return LatticeDesign(generator=gen, region=region,
                             coding_duration=duration, dither=dither)
    except Exception as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_noise(node, path: str) -> NoiseModel:
    if node is None:
        return NoiseModel()
    node = _require_mapping(node, path)
    _check_keys(node, _NOISE_KEYS, path)
    kind = _get(node, "kind", path, required=False, default="gaussian_unit")
    sigma_e = _number(_get(node, "sigma_e", path, required=False, default=0.0),
                      f"{path}.sigma_e")
    scale = _number(_get(node, "scale", path, required=False, default=1.0),
                    f"{path}.scale")
    try:
        return NoiseModel(kind=kind, sigma_e=sigma_e, scale=scale)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_channel(node, path: str) -> ChannelConfig:
    node = _require_mapping(node, path)
    _check_keys(node, _CHANNEL_KEYS, path)
    model = _get(node, "model", path)
    if model not in CHANNEL_MODELS:
        raise SchemaError(
            f"{path}.model: {model!r} is not one of {sorted(CHANNEL_MODELS)}")
    kwargs = {"model": model}
    for key in ("nt", "nr", "tones", "taps"):
        if key in node:
            kwargs[key] = _integer(node[key], f"{path}.{key}")
    if "h_real" in node:
        kwargs["h_real"] = _matrix(node["h_real"], f"{path}.h_real")
    if "arq" in node:
        arq_node = _require_mapping(node["arq"], f"{path}.arq")
        _check_keys(arq_node, _ARQ_KEYS, f"{path}.arq")
        kwargs["arq_rounds"] = _integer(_get(arq_node, "rounds", f"{path}.arq"),
                                        f"{path}.arq.rounds")
        kwargs["arq_x_thresh"] = _number(
            _get(arq_node, "x_thresh", f"{path}.arq"), f"{path}.arq.x_thresh")
    kwargs["noise"] = _parse_noise(_get(node, "noise", path, required=False),
                                   f"{path}.noise")
    try:
        return ChannelConfig(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_gate(node, path: str):
    if node is None:
        return None, 0.75
    node = _require_mapping(node, path)
    _check_keys(node, _GATE_KEYS, path)
    delta = _number(_get(node, "delta", path, required=False, default=0.75),
                    f"{path}.delta")
    has_alpha = "alpha" in node
    has_target = "d_target" in node
    if has_alpha == has_target:
        raise SchemaError(f"{path}: give exactly one of alpha or d_target")
    if has_alpha:
        return _number(node["alpha"], f"{path}.alpha"), delta
    try:
        return gate_exponent_default(_number(node["d_target"],
                                             f"{path}.d_target")), delta
    except ValueError as exc:
        raise SchemaError(f"{path}.d_target: {exc}") from exc


def parse_experiment(doc, seed_override: int | None = None,
                     source: str = "<config>") -> SweepConfig:
    """Validate a parsed YAML document and build the sweep configuration.

    Seed precedence: --seed override, then the file, then the LATDEC_SEED
    environment variable, then 0."""
    doc = _require_mapping(doc, source)
    _check_keys(doc, {"design", "channel", "sweep"}, source)
    sweep = _require_mapping(_get(doc, "sweep", source), "sweep")
    _check_keys(sweep, _SWEEP_KEYS, "sweep")

    if seed_override is not None:
        seed = int(seed_override)
    elif "seed" in sweep:
        seed = _integer(sweep["seed"], "sweep.seed")
    elif os.environ.get(ENV_SEED):
        try:
            seed = int(os.environ[ENV_SEED])
        except ValueError as exc:
            raise SchemaError(f"{ENV_SEED} must be an integer") from exc
    else:
        seed = 0

    design = _parse_design(_get(doc, "design", source), "design", seed)
    channel = _parse_channel(_get(doc, "channel", source), "channel")

    rho_list = _get(sweep, "rho_db", "sweep")
    if not isinstance(rho_list, list):
        raise SchemaError("sweep.rho_db: expected a list")
    rho_db = tuple(_number(v, "sweep.rho_db") for v in rho_list)
    r = _number(_get(sweep, "r", "sweep"), "sweep.r")
    methods = _get(sweep, "methods", "sweep")
    if not isinstance(methods, list) or not methods:
        raise SchemaError("sweep.methods: expected a nonempty list")
    for m in methods:
        if m not in METHODS:
            raise SchemaError(
                f"sweep.methods: {m!r} is not one of {sorted(METHODS)}")
    gate_alpha, gate_delta = _parse_gate(_get(sweep, "gate", "sweep",
                                              required=False), "sweep.gate")
    kwargs = dict(design=design, channel=channel, methods=tuple(methods),
                  rho_db=rho_db, r=r, seed=seed, gate_alpha=gate_alpha,
                  gate_delta=gate_delta)
    if "min_errors" in sweep:
        kwargs["min_errors"] = _integer(sweep["min_errors"], "sweep.min_errors")
    if "max_trials" in sweep:
        kwargs["max_trials"] = _integer(sweep["max_trials"], "sweep.max_trials")
    if "integer_nesting" in sweep:
        if not isinstance(sweep["integer_nesting"], bool):
            raise SchemaError("sweep.integer_nesting: expected true/false")
        kwargs["integer_nesting"] = sweep["integer_nesting"]
    if "node_budget" in sweep:
        kwargs["node_budget"] = _integer(sweep["node_budget"],
                                         "sweep.node_budget")
    try:
        return SweepConfig(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"sweep: {exc}") from exc


def load_experiment(path: str, seed_override: int | None = None) -> SweepConfig:
    """Load and validate an experiment file."""
    if not os.path.exists(path):
        raise SchemaError(f"experiment file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise SchemaError(f"{path}: invalid YAML ({exc})") from exc
    return parse_experiment(doc, seed_override=seed_override, source=path)
