"""Experiment-file parsing: schema errors with dotted paths, seed
precedence, and faithful construction of the sweep configuration."""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from latdec.cli import main
from latdec.errors import SchemaError
from latdec.experiment import load_experiment, parse_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

GOOD = """
design:
  generator: [[1.0, 0.0], [0.0, 1.0]]
  region:
    kind: box
    half_widths: [0.6, 0.6]
  coding_duration: 1
  dither: [0.5, 0.5]
channel:
  model: quasi_static_rayleigh
  nt: 1
  nr: 1
sweep:
  rho_db: [10.0, 14.0]
  r: 0.0
  methods: [ml, lr_linear]
  min_errors: 25
  max_trials: 5000
  seed: 77
  gate:
    d_target: 1.0
"""


def parse(text, **kw):
    return parse_experiment(yaml.safe_load(text), **kw)


def test_good_config_round_trip():
    cfg = parse(GOOD)
    assert cfg.rho_db == (10.0, 14.0)
    assert cfg.methods == ("ml", "lr_linear")
    assert cfg.min_errors == 25
    assert cfg.max_trials == 5000
    assert cfg.seed == 77
    assert cfg.r == 0.0
    assert cfg.gate_alpha == pytest.approx(1.5)     # (1 + 1)/2 + 0.5
    assert cfg.gate_delta == 0.75
    assert np.array_equal(cfg.design.generator, np.eye(2))
    assert np.array_equal(cfg.design.dither, [0.5, 0.5])
    assert cfg.channel.model == "quasi_static_rayleigh"


def test_unknown_key_is_named():
    bad = GOOD.replace("min_errors: 25", "min_errors: 25\n  turbo: yes")
    with pytest.raises(SchemaError) as exc:
        parse(bad)
    assert "turbo" in str(exc.value)
    assert "sweep" in str(exc.value)


def test_missing_required_keys():
    with pytest.raises(SchemaError) as exc:
        parse(GOOD.replace("  model: quasi_static_rayleigh\n", ""))
    assert "channel" in str(exc.value) and "model" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        parse(GOOD.replace("  r: 0.0\n", ""))
    assert "sweep" in str(exc.value)


def test_region_shape_conflicts():
    with pytest.raises(SchemaError):
        parse(GOOD.replace("half_widths: [0.6, 0.6]",
                           "half_widths: [0.6, 0.6]\n    radius: 1.0"))
    ball = GOOD.replace("kind: box", "kind: ball").replace(
        "half_widths: [0.6, 0.6]", "radius: 0.8")
    cfg = parse(ball)
    assert cfg.design.region.kind == "ball"
    assert cfg.design.region.radius == 0.8


def test_gate_exactly_one_spelling():
    with pytest.raises(SchemaError):
        parse(GOOD.replace("d_target: 1.0", "d_target: 1.0\n    alpha: 2.0"))
    with pytest.raises(SchemaError):
        parse(GOOD.replace("  gate:\n    d_target: 1.0\n", "  gate: {}\n"))
    direct = parse(GOOD.replace("d_target: 1.0", "alpha: 2.25"))
    assert direct.gate_alpha == 2.25


def test_gate_required_for_reduction_methods():
    with pytest.raises(SchemaError):
        parse(GOOD.replace("  gate:\n    d_target: 1.0\n", ""))
    ok = parse(GOOD.replace("methods: [ml, lr_linear]", "methods: [ml]")
                   .replace("  gate:\n    d_target: 1.0\n", ""))
    assert ok.gate_alpha is None


def test_bad_method_name():
    with pytest.raises(SchemaError) as exc:
        parse(GOOD.replace("[ml, lr_linear]", "[ml, genie]"))
    assert "genie" in str(exc.value)


def test_seed_precedence(monkeypatch):
    assert parse(GOOD).seed == 77                       # file value
    assert parse(GOOD, seed_override=5).seed == 5       # override wins
    no_seed = GOOD.replace("  seed: 77\n", "")
    assert parse(no_seed, seed_override=5).seed == 5
    # No environment variable is read: the final default is 0.
    monkeypatch.setenv("LATDEC_SEED", "123")
    assert parse(no_seed).seed == 0
    monkeypatch.setenv("LATDEC_SEED", "donkey")
    assert parse(no_seed).seed == 0


def test_mistyped_seed_is_an_error_under_override():
    with pytest.raises(SchemaError, match="sweep.seed"):
        parse(GOOD.replace("seed: 77", "seed: abc"), seed_override=5)


def test_random_dither_derived_from_seed():
    rand = GOOD.replace("dither: [0.5, 0.5]", 'dither: "random"')
    a = parse(rand).design.dither
    b = parse(rand).design.dither
    assert np.array_equal(a, b)                         # same seed, same dither
    c = parse(rand, seed_override=5).design.dither
    assert not np.array_equal(a, c)


def test_arq_channel_schema():
    arq = GOOD.replace(
        "  model: quasi_static_rayleigh\n  nt: 1\n  nr: 1\n",
        "  model: mimo_arq\n  nt: 1\n  nr: 1\n  arq:\n    rounds: 2\n"
        "    x_thresh: 1.0\n")
    cfg = parse(arq)
    assert cfg.channel.arq_rounds == 2
    assert cfg.channel.arq_x_thresh == 1.0
    with pytest.raises(SchemaError):
        parse(arq.replace("    x_thresh: 1.0\n", ""))   # threshold mandatory
    with pytest.raises(SchemaError):                    # arq key needs the model
        parse(GOOD.replace("  nr: 1\n",
                           "  nr: 1\n  arq:\n    rounds: 2\n    x_thresh: 1.0\n"))


def test_fixed_channel_schema():
    fixed = GOOD.replace(
        "  model: quasi_static_rayleigh\n  nt: 1\n  nr: 1\n",
        "  model: fixed\n  h_real: [[2.0, 0.0], [0.0, 2.0]]\n")
    cfg = parse(fixed)
    assert np.array_equal(cfg.channel.h_real, 2.0 * np.eye(2))
    with pytest.raises(SchemaError):                    # h_real needs the model
        parse(GOOD.replace("  nr: 1\n",
                           "  nr: 1\n  h_real: [[1.0]]\n"))


def test_non_mapping_document():
    with pytest.raises(SchemaError):
        parse_experiment(["not", "a", "mapping"])
    with pytest.raises(SchemaError):
        parse_experiment(None)


def test_load_experiment_missing_file(tmp_path):
    with pytest.raises(SchemaError) as exc:
        load_experiment(str(tmp_path / "absent.yaml"))
    assert "absent.yaml" in str(exc.value)


def test_load_experiment_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("design: [unclosed\n")
    with pytest.raises(SchemaError):
        load_experiment(str(path))


def test_load_experiment_unreadable_file(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_experiment(str(tmp_path))                  # a directory
    path = tmp_path / "binary.yaml"
    path.write_bytes(b"design: \xd0\x00\xff\n")
    with pytest.raises(SchemaError, match="invalid YAML"):
        load_experiment(str(path))


# Shipped experiment file -> (seed, grid, methods, gate_alpha, design
# dimension, dither, nt, nr, max_trials) as parsed before the schema moved
# into the config objects.
SHIPPED = {
    "pilot_1x1.yaml": (20260822, (14.0, 18.0, 22.0, 26.0, 30.0), ("ml", "lr_linear"),
                       1.5, 2, [0.5] * 2, 1, 1, 200000),
    "vblast_2x2.yaml": (20260822, (10.0, 14.0, 18.0, 22.0, 26.0, 30.0),
                        ("ml", "lr_linear"), 2.0, 4, [0.5] * 4, 2, 2, 500000),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_configs_parse(name, capsys):
    seed, grid, methods, alpha, dim, dither, nt, nr, max_trials = SHIPPED[name]
    cfg = load_experiment(str(CONFIGS / name))
    assert (cfg.seed, cfg.rho_db, cfg.methods, cfg.gate_alpha) == (
        seed, grid, methods, alpha)
    assert (cfg.r, cfg.min_errors, cfg.max_trials, cfg.gate_delta) == (
        0.0, 50, max_trials, 0.75)
    assert (cfg.design.dimension, cfg.design.coding_duration) == (dim, 1)
    assert np.array_equal(cfg.design.generator, np.eye(dim))
    assert np.array_equal(cfg.design.dither, dither)
    assert np.array_equal(cfg.design.region.half_widths, [0.6] * dim)
    assert (cfg.channel.model, cfg.channel.nt, cfg.channel.nr) == (
        "quasi_static_rayleigh", nt, nr)
    assert cfg.channel.noise.kind == "gaussian_unit"
    assert (cfg.channel.noise.sigma_e, cfg.channel.noise.scale) == (0.0, 1.0)
    assert main(["sweep", str(CONFIGS / name), "--dry-run"]) == 0
    assert f"{len(grid) * len(methods)} cells" in capsys.readouterr().out


def test_load_experiment_file(tmp_path):
    path = tmp_path / "ok.yaml"
    path.write_text(GOOD)
    cfg = load_experiment(str(path), seed_override=9)
    assert cfg.seed == 9


def test_readme_experiment_file_parses():
    # The README documents the schema by one example file: it must parse,
    # so the documented keys cannot drift from the schema.
    [block] = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(
        encoding="utf-8"), flags=re.DOTALL)
    cfg = parse(block)
    assert cfg.methods == ("ml", "lr_linear") and len(cfg.rho_db) == 5
