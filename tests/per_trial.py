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
the same outcome, and raise the same failure, for every method."""

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
from latdec.decoders import BlockStage, ChannelStage, RegularizedProblem


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
