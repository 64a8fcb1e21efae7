"""The benchmark under perfbench/ looks latdec functions up by name: every
function its tracer rebinds and every function its output checks call
must exist, and installing then removing the tracer must leave every
module binding as it was.  An API cut that breaks this would otherwise
surface only in a traced benchmark run (`--trace 1`).  A sweep must also
call the traced per-block functions, or their metrics read 0."""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import latdec  # noqa: E402
import tracing  # noqa: E402  (imports checks.LATDEC_FNS)


def _bindings() -> dict:
    return {(module.__name__, attr): value
            for module in tracing._MODULES for attr, value in vars(module).items()}


def test_traced_and_checked_names_resolve():
    for layer, home, names in tracing.TRACED:
        for name in names:
            assert callable(getattr(home, name, None)), f"{layer}.{name}"
    assert all(callable(fn) for fn in checks.LATDEC_FNS.values())


def test_tracer_install_and_uninstall_restore_every_binding(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        for _, home, names in tracing.TRACED:
            for name in names:
                assert getattr(home, name) is not before[(home.__name__, name)]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())



@pytest.mark.parametrize("channel", [
    latdec.ChannelConfig(model="quasi_static_rayleigh"),
    latdec.ChannelConfig(model="mimo_arq", arq_rounds=2, arq_x_thresh=1.0)],
    ids=lambda c: c.model)
def test_sweeps_run_through_the_traced_decode_and_episode(channel, tmp_path):
    # Each block a method runs in is one traced `decoders.decode` span of
    # that method (the block's lanes decoded in one call, lanes decoded one
    # by one included).  Each block is drawn at once by
    # `ChannelConfig.draw_block`: one traced `channels.complex_gaussian`
    # span draws its channels, and no trial builds its own `trial_rng` or
    # runs its own `simulate_arq_episode`, so those metrics read 0.  A block
    # draws all its trials before it decodes any, so a level draws up to
    # the end of the block that holds its last recorded trial.
    design = latdec.LatticeDesign(generator=np.eye(2),
                                  region=latdec.ShapingRegion.box([0.6, 0.6]),
                                  dither=np.full(2, 0.5))
    config = latdec.SweepConfig(design=design, channel=channel,
                                methods=("ml", "reg_exact", "lr_sic", "lr_linear"),
                                rho_db=(10.0, 14.0), r=0.0, min_errors=20,
                                max_trials=60, seed=3, gate_alpha=1.5)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        records = latdec.run_sweep(config).records
    finally:
        tracer.uninstall()
    spans = collections.Counter(span[0] for span in tracer.spans)
    block = latdec.dmtsim.BLOCK_TRIALS
    for method in config.methods:
        blocks = sum(-(-rec.trials // block) for rec in records if rec.method == method)
        assert blocks > 0 and spans[f"decoders.decode.{method}"] == blocks
    last = [max(rec.trials for rec in records if rec.rho_db == rho_db)
            for rho_db in config.rho_db]
    assert spans["channels.complex_gaussian"] == sum(-(-t // block) for t in last)
    assert spans["channels.trial_rng"] == spans["channels.simulate_arq_episode"] == 0
