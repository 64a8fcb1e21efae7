"""The per-trial references a sweep's block path is tested against.

`trial_sampler` draws one trial at a time from its own `trial_rng`
streams, through numpy's Generator: the reference of
`ChannelConfig.draw_block`, whose lanes must hold the same H, message and
y, bit for bit.  `block_stage` writes such draws into one `BlockStage`.

`prepare` builds one received block's `ChannelStage` on its own: one
`RegularizedProblem`, whose constructor checks y and H, and whose GDFE
triangular form (`prepared()`) and gated LLL reduction (`gated_reduce`,
the single-basis list loop) are built on first use, at most once, and
only for a method that reads them.  A `BlockStage` lane must decode to
the same outcome, and raise the same failure, for every method.

`spy_ml_searches` makes ML search every codebook and records each search
it builds, for the tests that check the search against the scan."""

import numpy as np

from latdec.channels import (
    TrialDraw,
    complex_gaussian,
    embed_complex,
    fixed_channel,
    sample_naf_relay,
    sample_noise,
    sample_quasi_static_rayleigh,
    simulate_arq_episode,
)
from latdec import decoders
from latdec.decoders import BlockStage, ChannelStage, RegularizedProblem
from latdec.errors import LatdecError


def prepare(y, h, design, codebook, rho=None, gate_alpha=None) -> ChannelStage:
    """Channel stage of one received block sent from `codebook`, the
    design's codebook, whose scale is the lattice's phi for every method.
    The penalty is the identity; the reduction-aided methods need `rho`
    and the gate exponent `gate_alpha`."""
    problem = RegularizedProblem(y=y, h=h, t_reg=np.eye(design.dimension),
                                 scaled_generator=codebook.scale * design.generator,
                                 dither=design.dither)
    return ChannelStage(problem, design, codebook, rho=rho, gate_alpha=gate_alpha)


def sample(channel, t, rho, rng) -> np.ndarray:
    """The real-embedded matrix of one non-ARQ channel draw over t uses."""
    if channel.model == "quasi_static_rayleigh":
        return sample_quasi_static_rayleigh(channel.nt, channel.nr, t, rho, rng)
    if channel.model == "mimo_ofdm":   # each tone's tap sum as np.tensordot forms it
        tap_mats = complex_gaussian(rng, (channel.taps, channel.nr, channel.nt))
        tone_mats = np.zeros((channel.tones, channel.nr, channel.nt), dtype=np.complex128)
        for l in range(channel.tones):
            phase = np.exp(-2j * np.pi * np.arange(channel.taps) * l / channel.tones)
            tone_mats[l] = np.tensordot(phase, tap_mats, axes=(0, 0))
        return embed_complex(tone_mats, t // channel.tones, rho)
    if channel.model == "naf_relay":
        return sample_naf_relay(rho, rng)
    return fixed_channel(channel.h_real)


def trial_sampler(channel, rungs, rho, stream):
    """Trial index -> TrialDraw on a cell's `cell_codebooks` rungs.

    `stream(trial, *sub)` gives a trial's random stream.  A plain trial
    draws channel, message and noise from `stream(trial)`; an ARQ episode
    draws its channel there and its message and noise from
    `stream(trial, 1)`, and is decoded on the rung of its stopping round."""
    if channel.model == "mimo_arq":
        def draw_arq(trial: int) -> TrialDraw:
            hc = complex_gaussian(stream(trial), (channel.nr, channel.nt))
            return simulate_arq_episode(rungs, hc, rho, channel.arq_x_thresh,
                                        stream(trial, 1), channel.noise)[0]

        return draw_arq

    [(design, codebook)] = rungs

    def draw(trial: int) -> TrialDraw:
        rng = stream(trial)
        h = sample(channel, design.coding_duration, rho, rng)
        msg = int(rng.integers(codebook.size))
        x = codebook.points[msg]
        y = h @ x + sample_noise(h.shape[0], channel.noise, x, rng)
        return TrialDraw(y=y, h=h, design=design, codebook=codebook, message=msg)

    return draw


def block_stage(rungs, lanes, rho=None, gate_alpha=None) -> BlockStage:
    """The `BlockStage` of `lanes`, (y, H, codebook, message) each, in
    block order: each lane joins the stack of the rung whose codebook it
    was sent from."""
    stacks = []
    for _, book in rungs:
        on = [i for i, lane in enumerate(lanes) if lane[2] is book]
        stacks.append((np.array(on, dtype=np.intp),
                       np.array([lanes[i][0] for i in on], dtype=np.float64),
                       np.array([lanes[i][1] for i in on], dtype=np.float64),
                       np.array([lanes[i][3] for i in on], dtype=np.int64))
                      if on else None)
    return BlockStage(rungs, stacks, rho=rho, gate_alpha=gate_alpha)


def spy_ml_searches(monkeypatch):
    """Make ML search every codebook (`ML_SCAN_MAX_POINTS` = 0), and
    return two lists filled in call order: `searches`, each `_MLSearch`
    built (of a lone stage or of a block's rung) as (lanes, the type of
    the `LatdecError` its constructor raised, or None), and `leaf_tests`,
    each box-bounded sphere search as whether it tests its leaves."""
    monkeypatch.setattr(decoders, "ML_SCAN_MAX_POINTS", 0)
    searches, leaf_tests = [], []
    search, sphere_search = decoders._MLSearch, decoders._sphere_search

    def spied_search(y, *args):
        try:
            built = search(y, *args)
        except LatdecError as exc:
            searches.append((len(y), type(exc)))
            raise
        searches.append((len(y), None))
        return built

    def spied_sphere_search(r, ytil, box=None, slack=0.0, accept=None):
        if box is not None:
            leaf_tests.append(accept is not None)
        return sphere_search(r, ytil, box=box, slack=slack, accept=accept)

    monkeypatch.setattr(decoders, "_MLSearch", spied_search)
    monkeypatch.setattr(decoders, "_sphere_search", spied_sphere_search)
    return searches, leaf_tests
