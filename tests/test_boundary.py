"""Non-finite, empty and mistyped inputs are rejected where they enter the
program: in the config objects built from experiment files or by library
callers, and at the decoder entry points (the `RegularizedProblem`
constructor, which the per-trial reference `prepare` runs, and a sweep
block's `BlockStage.build`).  The kernels below them scan nothing."""

import copy
import math

import numpy as np
import pytest
import yaml

from latdec.cli import main
from latdec.decoders import RegularizedProblem
from latdec.channels import NoiseModel
from latdec.dmtsim import ChannelConfig, SweepConfig
from latdec.errors import SchemaError
from latdec.experiment import parse_experiment
from latdec.lattice import LatticeDesign, ShapingRegion, enumerate_codebook
from latdec.reduction import gate_exponent_default
from per_trial import block_stage, prepare

DESIGN = LatticeDesign(generator=np.eye(2), region=ShapingRegion.box([0.6, 0.6]),
                       dither=np.array([0.5, 0.5]))
BOOK = enumerate_codebook(DESIGN, 1.0)


def _with(bad, shape, index):
    a = np.ones(shape) if len(shape) == 1 else np.eye(shape[0])
    a[index] = bad
    return a


def _problem(y=None, h=None):
    return RegularizedProblem(y=np.ones(2) if y is None else y,
                              h=np.eye(2) if h is None else h,
                              t_reg=np.eye(2), scaled_generator=np.eye(2))


def _block(y=None, h=None):
    """A two-lane block whose second lane holds the bad entry."""
    block_stage([(DESIGN, BOOK)], [
        (np.ones(2), np.eye(2), BOOK, 0),
        (np.ones(2) if y is None else y, np.eye(2) if h is None else h, BOOK, 0)]).build(())


# Each entry builds one object or runs one entry point with a single bad
# entry in one of its inputs.
ENTRY_POINTS = {
    "prepare.y": lambda bad: prepare(_with(bad, (2,), 1), np.eye(2), DESIGN, BOOK),
    "prepare.H": lambda bad: prepare(np.ones(2), _with(bad, (2, 2), (1, 0)), DESIGN, BOOK),
    "BlockStage.y": lambda bad: _block(y=_with(bad, (2,), 1)),
    "BlockStage.H": lambda bad: _block(h=_with(bad, (2, 2), (0, 1))),
    "RegularizedProblem.y": lambda bad: _problem(y=_with(bad, (2,), 0)),
    "RegularizedProblem.H": lambda bad: _problem(h=_with(bad, (2, 2), (1, 1))),
    "LatticeDesign.generator": lambda bad: LatticeDesign(
        generator=_with(bad, (2, 2), (0, 1)), region=DESIGN.region),
    "LatticeDesign.dither": lambda bad: LatticeDesign(
        generator=np.eye(2), region=DESIGN.region, dither=_with(bad, (2,), 1)),
    "ShapingRegion.box": lambda bad: ShapingRegion.box(_with(bad, (2,), 0)),
    "ChannelConfig.h_real": lambda bad: ChannelConfig(
        model="fixed", h_real=_with(bad, (2, 2), (1, 0))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_input_rejected_where_it_enters(entry, bad):
    with pytest.raises(ValueError, match="NaN or Inf"):
        ENTRY_POINTS[entry](bad)


# Size-0 arrays are refused where they enter, like non-finite ones: an
# empty generator used to pass and then fail inside the enumeration's sort,
# and an empty fixed channel in the first trial's noise draw.
EMPTY_INPUTS = {
    "LatticeDesign.generator": lambda: LatticeDesign(
        generator=np.zeros((0, 0)), region=ShapingRegion.ball(1.0)),
    "ChannelConfig.h_real": lambda: ChannelConfig(model="fixed",
                                                  h_real=np.zeros((0, 2))),
}


@pytest.mark.parametrize("entry", sorted(EMPTY_INPUTS))
def test_empty_input_rejected_where_it_enters(entry):
    with pytest.raises(ValueError, match="nonempty"):
        EMPTY_INPUTS[entry]()


DOC = {
    "design": {"generator": [[1.0, 0.0], [0.0, 1.0]],
               "region": {"kind": "box", "half_widths": [0.6, 0.6]},
               "dither": [0.5, 0.5]},
    "channel": {"model": "quasi_static_rayleigh", "nt": 1, "nr": 1,
                "noise": {"scale": 1.0}},
    "sweep": {"rho_db": [8.0, 12.0], "r": 0.0, "methods": ["ml"],
              "min_errors": 20, "max_trials": 50, "seed": 3,
              "gate": {"alpha": 1.5}},
}

NAN, INF = float("nan"), float("inf")

# (path into the document, value) edits that put one non-finite number
# into an experiment file.
FILE_CASES = {
    "generator": [(("design", "generator", 1, 0), NAN)],
    "generator, random dither": [(("design", "generator", 0, 0), NAN),
                                 (("design", "dither"), "random")],
    "half_widths": [(("design", "region", "half_widths", 1), INF)],
    "noise scale": [(("channel", "noise", "scale"), NAN)],
    "x_thresh": [(("channel",), {"model": "mimo_arq", "nt": 1, "nr": 1,
                                 "arq": {"rounds": 2, "x_thresh": NAN}})],
    "rho_db": [(("sweep", "rho_db", 0), NAN)],
    "r": [(("sweep", "r"), NAN)],
    "gate alpha": [(("sweep", "gate", "alpha"), INF)],
}


RELAY_DESIGN = {"generator": np.eye(4).tolist(),
                "region": {"kind": "box", "half_widths": [0.6] * 4},
                "dither": [0.5] * 4}

# Finite values out of range: each used to escape as a traceback or pass
# the dry run and fail once the sweep started.
RANGE_CASES = {
    "tones 0": [(("channel",), {"model": "mimo_ofdm", "nt": 1, "nr": 1,
                                "tones": 0, "taps": 2})],
    "taps 0": [(("channel",), {"model": "mimo_ofdm", "nt": 1, "nr": 1,
                               "tones": 1, "taps": 0})],
    "negative d_target": [(("sweep", "gate"), {"d_target": -1.0})],
    # A nonpositive exponent makes every gate threshold rho^alpha <= 1:
    # every reduction-aided decode would be a gate timeout.
    "negative gate alpha": [(("sweep", "gate", "alpha"), -1.0)],
    # The search caps, LLL's delta and the lattice scaling are fixed: each
    # key is unknown, whatever its value.
    "node_budget unknown key": [(("sweep", "node_budget"), 0)],
    "gate delta unknown key": [(("sweep", "gate", "delta"), 0.75)],
    "integer_nesting unknown key": [(("sweep", "integer_nesting"), False)],
    # Finite in the file, but out of float64 range once a level is run:
    # rho itself, the gate threshold rho^alpha, or phi = rho^(-r T / n).
    "rho_db overflows": [(("sweep", "rho_db"), [20.0, 3100.0])],
    "gate threshold overflows": [(("sweep", "rho_db"), [20.0, 30.0]),
                                 (("sweep", "gate"), {"alpha": 120.0})],
    "phi underflows": [(("sweep", "rho_db"), [26.0, 30.0]), (("sweep", "r"), 400.0)],
    "singular generator": [(("design", "generator"), [[1.0, 1.0], [1.0, 1.0]])],
    "non-square generator, random dither": [(("design", "generator"), [[1.0, 0.0]]),
                                            (("design", "dither"), "random")],
    # A parameter the model does not read: each used to pass the dry run
    # and then silently run a different channel.
    "rayleigh with tones and taps": [
        (("channel",), {"model": "quasi_static_rayleigh", "nt": 1, "nr": 1,
                        "tones": 4, "taps": 3})],
    "relay with nt and nr": [
        (("design",), {"generator": np.eye(4).tolist(),
                       "region": {"kind": "box", "half_widths": [0.6] * 4},
                       "dither": [0.5] * 4}),
        (("channel",), {"model": "naf_relay", "nt": 3, "nr": 5})],
    "fixed with taps": [(("channel",), {"model": "fixed", "taps": 5,
                                        "h_real": [[1.0, 0.0], [0.0, 1.0]]})],
    "fixed with an empty row": [(("channel",), {"model": "fixed", "h_real": [[]]})],
    # The NAF frame is two channel uses: a relay design of any other
    # duration used to pass the dry run and run at a different rate.
    "relay frame of one use": [(("design",), RELAY_DESIGN | {"coding_duration": 1}),
                               (("channel",), {"model": "naf_relay"})],
    "relay frame of three uses": [(("design",), RELAY_DESIGN | {"coding_duration": 3}),
                                  (("channel",), {"model": "naf_relay"})],
    # An integer too large for a float64 used to escape as an OverflowError.
    "r beyond float64": [(("sweep", "r"), 10**400)],
    # Fewer channel outputs than inputs: the unregularized decoder's
    # effective channel is singular on every draw, so the sweep used to
    # pass the dry run and then fail numerically on the first trial.
    "naive with fewer outputs than inputs": [
        (("design",), {"generator": np.eye(4).tolist(),
                       "region": {"kind": "box", "half_widths": [0.6] * 4},
                       "dither": [0.5] * 4}),
        (("channel",), {"model": "quasi_static_rayleigh", "nt": 2, "nr": 1}),
        (("sweep", "methods"), ["ml", "naive"])],
}


# Values of the wrong type: each must be named as a schema error, never
# escape as a traceback from a membership test or a conversion.
TYPE_CASES = {
    "model list": [(("channel", "model"), ["a"])],
    "methods nested list": [(("sweep", "methods"), [["ml"]])],
    "nt float": [(("channel", "nt"), 1.0)],
    "region kind list": [(("design", "region", "kind"), ["box"])],
    "generator empty row, random dither": [(("design", "generator"), [[]]),
                                           (("design", "dither"), "random")],
}


def _edited(doc, edits):
    """A copy of `doc` with each (path, value) edit applied."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    return doc


def _assert_schema_error(edits, tmp_path, capsys):
    doc = _edited(DOC, edits)
    with pytest.raises(SchemaError):
        parse_experiment(doc)
    config = tmp_path / "exp.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["sweep", str(config), "--dry-run"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_non_finite_experiment_file_is_a_schema_error(case, tmp_path, capsys):
    _assert_schema_error(FILE_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_out_of_range_experiment_file_is_a_schema_error(case, tmp_path, capsys):
    _assert_schema_error(RANGE_CASES[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(TYPE_CASES))
def test_mistyped_experiment_file_is_a_schema_error(case, tmp_path, capsys):
    _assert_schema_error(TYPE_CASES[case], tmp_path, capsys)


def _sweep(**kw):
    return SweepConfig(**{"design": DESIGN, "methods": ("ml",), "rho_db": (8.0, 12.0),
                          "channel": ChannelConfig(model="quasi_static_rayleigh"),
                          "r": 0.0} | kw)


# Library callers get the type checks experiment files get: each call
# used to run with a bool as a number or raise a TypeError.
LIBRARY_CASES = {
    "SweepConfig r bool": lambda: _sweep(r=True),
    "SweepConfig gate_alpha bool": lambda: _sweep(gate_alpha=True),
    "SweepConfig rho_db bool": lambda: _sweep(rho_db=(True, 20)),
    "SweepConfig r string": lambda: _sweep(r="0.5"),
    "NoiseModel scale bool": lambda: NoiseModel(scale=True),
    "NoiseModel sigma_e string": lambda: NoiseModel(sigma_e="x"),
    "ShapingRegion radius bool": lambda: ShapingRegion(kind="ball", radius=True),
    "ShapingRegion radius string": lambda: ShapingRegion(kind="ball", radius="1"),
    "ShapingRegion.ball bool": lambda: ShapingRegion.ball(True),
    "ShapingRegion.ball string": lambda: ShapingRegion.ball("1"),
    "ChannelConfig x_thresh bool": lambda: ChannelConfig(
        model="mimo_arq", arq_rounds=2, arq_x_thresh=True),
    "ChannelConfig x_thresh string": lambda: ChannelConfig(
        model="mimo_arq", arq_rounds=2, arq_x_thresh="2"),
    "ChannelConfig model list": lambda: ChannelConfig(model=["a"]),
    "gate_exponent_default string": lambda: gate_exponent_default("1"),
    # A nested config object of the wrong type: each used to be accepted or
    # raise AttributeError, the noise at the sweep's first trial.
    "ChannelConfig noise string": lambda: ChannelConfig(
        model="quasi_static_rayleigh", noise="x"),
    "LatticeDesign region string": lambda: LatticeDesign(
        generator=np.eye(2), region="box"),
    "SweepConfig design string": lambda: _sweep(design="x"),
    "SweepConfig channel string": lambda: _sweep(channel="x"),
    "SweepConfig rho_db number": lambda: _sweep(rho_db=5),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_CASES))
def test_mistyped_library_call_is_a_value_error(case):
    with pytest.raises(ValueError):
        LIBRARY_CASES[case]()


def test_bare_string_is_not_a_method_list():
    # Not read as the methods 'm' and 'l'.
    with pytest.raises(ValueError, match="methods must be a list, got 'ml'"):
        _sweep(methods="ml")
    assert _sweep(methods=["ml"]).methods == ("ml",)


@pytest.mark.parametrize("seed", ["x", "5", True, 1.5, [5]])
def test_seed_override_is_checked_as_an_integer(seed):
    # "x" used to raise a bare ValueError from int(), True to run seed 1.
    with pytest.raises(SchemaError, match="seed_override"):
        parse_experiment(DOC, seed_override=seed)


def test_seed_override_takes_any_integer():
    for seed in (5, np.int64(5), -3):
        assert parse_experiment(DOC, seed_override=seed).seed == int(seed)


# Four documents between them reach every section and key but the OFDM
# counts; every leaf of each is replaced by every value below.
CORPUS_DOCS = [
    # box region, self-interference noise, d_target gate
    DOC | {"channel": {"model": "quasi_static_rayleigh", "nt": 1, "nr": 1,
                       "noise": {"kind": "self_interference", "sigma_e": 0.3,
                                 "scale": 1.0}},
           "design": DOC["design"] | {"coding_duration": 1},
           "sweep": DOC["sweep"] | {"methods": ["ml", "lr_linear"],
                                    "gate": {"d_target": 1.0}}},
    {"design": {"generator": [[1.0, 0.0], [0.0, 1.0]],
                "region": {"kind": "box", "half_widths": [0.6, 0.6]}},
     "channel": {"model": "mimo_arq", "arq": {"rounds": 2, "x_thresh": 1.0}},
     "sweep": {"rho_db": [18.0, 24.0], "r": 0.5, "methods": ["lr_sic"],
               "gate": {"alpha": 1.5}}},
    {"design": {"generator": [[1.0, 0.0], [0.0, 1.0]],
                "region": {"kind": "ball", "radius": 0.8}, "dither": "random"},
     "channel": {"model": "quasi_static_rayleigh"},
     "sweep": {"rho_db": [8.0, 12.0], "r": 0.0, "methods": ["ml"]}},
    {"design": {"generator": [[1.0]], "region": {"kind": "box", "half_widths": [0.6]}},
     "channel": {"model": "fixed", "h_real": [[2.0]]},
     "sweep": {"rho_db": [4.0, 8.0], "r": 0.0, "methods": ["ml"]}},
]

CORPUS_VALUES = [None, True, False, 0, 1, -1, 2, 1.5, -0.5, math.nan, math.inf,
                 "x", "random", "1", [], [1], [1.0, 2.0], [[1.0]], [[]], [{}],
                 [[{}]], [["a"]], [True, 1.0], {}, {"a": 1},
                 [[1.0, 0.0], [0.0]], 10**30]


def _leaf_paths(node, path=()):
    """Paths of every mapping value, every list and every list item."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _leaf_paths(value, path + (key,))


def test_no_malformed_value_escapes_the_schema():
    for doc in CORPUS_DOCS:
        assert isinstance(parse_experiment(doc), SweepConfig)
    for doc in (_edited(doc, [(path, value)]) for doc in CORPUS_DOCS
                for path in _leaf_paths(doc) for value in CORPUS_VALUES):
        for seed_override in (None, 5):
            try:
                assert isinstance(parse_experiment(doc, seed_override), SweepConfig)
            except SchemaError:
                pass
