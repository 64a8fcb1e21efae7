"""Channel models: configuration, samplers, the real embedding, noise.

`ChannelConfig` is the one place that knows the channel models: it checks
a design against its model, builds a sweep cell's codebooks once
(`cell_codebooks`: the design at rate r, or each ARQ fragment l at rate
r/l) and draws the cell's trials on them, ARQ episodes
(`simulate_arq_episode`) included.  This layer decodes nothing.

Complex channels are numpy complex128 arrays.  Every sampler returns the
real-embedded matrix used by the decoders: for a stack of k complex
matrices Hc_l (k = 1 for flat fading, one per tone for OFDM) over T uses
each, the block diagonal

    H = sqrt(rho) * diag(I_T (x) B_1, ..., I_T (x) B_k),
    B_l = [[Re Hc_l, -Im Hc_l], [Im Hc_l, Re Hc_l]],

so a length-2*nT*k*T real input vector stacks [Re x_u; Im x_u] per
channel use u.  The signal level rho rides inside H; noise is unit
variance per real dimension.

Randomness: all Gaussians come from explicit Box-Muller over a
counter-based generator (Philox keyed through SeedSequence), so replays
are bit-identical across platforms.  `trial_rng` derives one independent
stream per (experiment seed, integer key tuple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NotPositiveDefinite
from .lattice import (Codebook, LatticeDesign, ShapingRegion, enumerate_codebook,
                      scaling_factor)
from .numkernel import as_integer, as_matrix, as_real

__all__ = [
    "ChannelConfig",
    "NoiseModel",
    "trial_rng",
    "standard_normal",
    "complex_gaussian",
    "embed_complex",
    "sample_quasi_static_rayleigh",
    "sample_mimo_ofdm",
    "sample_naf_relay",
    "fixed_channel",
    "arq_ack",
    "TrialDraw",
    "simulate_arq_episode",
    "sample_noise",
]


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise: i.i.d. unit Gaussians, optionally plus a random
    self-interference term E x with E entries N(0, sigma_e^2/(m n)).

    `scale` multiplies the whole noise vector; 0 gives a noiseless
    channel for oracle checks."""

    kind: str = "gaussian_unit"
    sigma_e: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian_unit", "self_interference"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("sigma_e", "scale"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        if not (0.0 <= self.sigma_e < math.inf and 0.0 <= self.scale < math.inf):
            raise ValueError("sigma_e and scale must be nonnegative and finite")


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based per-trial stream: hash (seed, key...) into a Philox
    generator.  Same inputs give the same stream on every platform."""
    entropy = int(seed) & (2**64 - 1)
    spawn = tuple(int(k) & 0xFFFFFFFF for k in key)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn)
    return np.random.Generator(np.random.Philox(ss))


def _box_muller(rng, count: int, var: float) -> tuple[np.ndarray, np.ndarray]:
    """The package's one Gaussian draw: count Box-Muller pairs (c, s) of
    N(0, var), from u1, then u2, as radius sqrt(-2 var log u1) at angle 2 pi u2."""
    u1 = 1.0 - rng.random(count)   # (0, 1]: keeps the log finite
    u2 = rng.random(count)
    rad = np.sqrt(-2.0 * var * np.log(u1))
    return rad * np.cos(2.0 * np.pi * u2), rad * np.sin(2.0 * np.pi * u2)


def standard_normal(rng, size: int) -> np.ndarray:
    """size i.i.d. N(0, 1) samples: each pair's cosine, then its sine."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    c, s = _box_muller(rng, (size + 1) // 2, 1.0)
    out = np.empty(2 * c.shape[0])
    out[0::2], out[1::2] = c, s
    return out[:size]


def complex_gaussian(rng, shape) -> np.ndarray:
    """Circular complex Gaussians, unit variance per entry (so the real
    and imaginary parts each carry variance 1/2)."""
    c, s = _box_muller(rng, int(np.prod(shape)), 0.5)
    return (c + 1j * s).reshape(shape)


def embed_complex(hc, t: int, rho: float) -> np.ndarray:
    """Real embedding of one complex channel (nr, nt) or a stack (k, nr, nt)
    over t uses each, with the signal level folded in: the block diagonal
    of the k blocks sqrt(rho) [[Re, -Im], [Im, Re]], each repeated t times."""
    hc = np.asarray(hc, dtype=np.complex128)
    if t < 1:
        raise ValueError("t must be >= 1")
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    stack = hc.reshape((-1,) + hc.shape[-2:])
    re, im = math.sqrt(rho) * stack.real, math.sqrt(rho) * stack.imag
    blocks = np.concatenate([np.concatenate([re, -im], axis=2),
                             np.concatenate([im, re], axis=2)], axis=1)
    return _block_diagonal(np.repeat(blocks, t, axis=0))


def _block_diagonal(blocks) -> np.ndarray:
    """Block-diagonal matrix of a stack of equal-shape blocks (m, p, q)."""
    m, p, q = blocks.shape
    out = np.zeros((m, p, m, q))
    out[np.arange(m), :, np.arange(m), :] = blocks
    return out.reshape(m * p, m * q)


def sample_quasi_static_rayleigh(nt: int, nr: int, t: int, rho: float,
                                 rng) -> np.ndarray:
    """i.i.d. unit-variance complex Gaussian fading, constant over the
    coding block."""
    return embed_complex(complex_gaussian(rng, (nr, nt)), t, rho)


def sample_mimo_ofdm(nt: int, nr: int, tones: int, taps: int, t: int,
                     rho: float, rng) -> np.ndarray:
    """Frequency-selective block fading: `taps` i.i.d. matrix taps, a DFT
    across `tones` parallel tones, block-diagonal real embedding.

    One codeword spans tones * t channel uses."""
    if tones < 1 or taps < 1:
        raise ValueError("tones and taps must be >= 1")
    tap_mats = complex_gaussian(rng, (taps, nr, nt))
    tone_mats = np.zeros((tones, nr, nt), dtype=np.complex128)
    for l in range(tones):
        phase = np.exp(-2j * np.pi * np.arange(taps) * l / tones)
        tone_mats[l] = np.tensordot(phase, tap_mats, axes=(0, 0))
    return embed_complex(tone_mats, t, rho)


def sample_naf_relay(rho: float, rng) -> np.ndarray:
    """Single-relay nonorthogonal amplify-and-forward cooperation,
    whitened into an equivalent 2x2 complex channel.

    h1: source-destination, h2: source-relay, h3: relay-destination.
    The relay gain b is maximal under its unit power constraint,
    |b|^2 (rho |h2|^2 + 1) = 1.  Amplified relay noise is whitened away,
    leaving the lower-triangular equivalent matrix.  One codeword spans
    two channel uses."""
    draws = complex_gaussian(rng, 3)
    h1, h2, h3 = draws[0], draws[1], draws[2]
    b = 1.0 / math.sqrt(rho * abs(h2) ** 2 + 1.0)
    denom = math.sqrt(rho * abs(b * h3) ** 2 + 1.0)
    hc = np.array([
        [h1, 0.0],
        [math.sqrt(rho) * b * h2 * h3 / denom, h1 / denom],
    ], dtype=np.complex128)
    return embed_complex(hc, 1, rho)


def fixed_channel(h_real) -> np.ndarray:
    """Deterministic channel (the real matrix itself, the same on every
    draw) for oracle and regression tests."""
    return np.asarray(h_real, dtype=np.float64)


def arq_ack(hc, rho: float, x_thresh: float, round_index: int) -> bool:
    """Rate-confirmation rule for round l: the per-round mutual
    information log det(I + rho Hc Hc^H) must reach (x/l) log rho.
    Natural logs on both sides (the base cancels)."""
    hc = np.asarray(hc, dtype=np.complex128)
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    if round_index < 1:
        raise ValueError("round_index must be >= 1")
    gram = np.eye(hc.shape[0], dtype=np.complex128) + rho * (hc @ hc.conj().T)
    sign, logdet = np.linalg.slogdet(gram)
    if sign.real <= 0.0:
        raise NotPositiveDefinite("mutual-information Gram matrix not positive")
    return bool(logdet >= (x_thresh / round_index) * math.log(rho))


@dataclass
class TrialDraw:
    """One received block with what every decoder needs to decode it:
    the transmitted codeword is entry `message` of `codebook`, whose
    scale is the design's phi."""

    y: np.ndarray
    h: np.ndarray
    design: LatticeDesign
    codebook: Codebook
    message: int


def _arq_fragments(design: LatticeDesign, rounds: int) -> list:
    """Fragment designs for rounds 1..L by block-tiling the base design.

    Box regions only: the generator goes block diagonal and the box
    half-widths and dither tile across rounds."""
    return [LatticeDesign(
        generator=_block_diagonal(np.broadcast_to(design.generator,
                                                  (l,) + design.generator.shape)),
        region=ShapingRegion.box(np.tile(design.region.half_widths, l)),
        coding_duration=l * design.coding_duration,
        dither=None if design.dither is None else np.tile(design.dither, l))
        for l in range(1, rounds + 1)]


def simulate_arq_episode(rungs, hc, rho: float, x_thresh: float,
                         rng, noise: NoiseModel) -> tuple[TrialDraw, list]:
    """Draw one ARQ episode over long-term static fading up to its
    stopping round; returns the block decoded there and the ACK history.

    `rungs[l-1]` is the (design, codebook) pair decoded after round l, as
    `ChannelConfig.cell_codebooks` builds it: its design covers rounds
    1..l, so it spans l rounds of the channel's input and l times rung 1's
    coding duration.  Rounds 1..L-1 stop on ACK; round L always stops.  A
    message index is drawn uniformly below the smallest codebook size and
    encoded by the stopping rung through its canonical codebook order;
    each round adds its own noise."""
    hc = np.asarray(hc, dtype=np.complex128)
    if not rungs:
        raise ValueError("need at least one rung")
    uses = rungs[0][0].coding_duration
    m_round, dim_round = 2 * uses * hc.shape[0], 2 * uses * hc.shape[1]
    for l, (design, _) in enumerate(rungs, start=1):
        if (design.dimension, design.coding_duration) != (l * dim_round, l * uses):
            raise ValueError(f"rung {l} must span {l} rounds of {dim_round} channel "
                             f"input dims over {uses} uses: dimension "
                             f"{l * dim_round}, coding duration {l * uses}")
    rounds = len(rungs)
    acks = []
    for l in range(1, rounds + 1):
        acks.append(l == rounds or arq_ack(hc, rho, x_thresh, l))
        if acks[-1]:
            break
    stop = len(acks)
    design, book = rungs[stop - 1]
    message = int(rng.integers(min(b.size for _, b in rungs)))
    x = book.points[message]
    w = np.concatenate([
        sample_noise(m_round, noise, x[j * dim_round:(j + 1) * dim_round], rng)
        for j in range(stop)])
    h = embed_complex(hc, stop * uses, rho)
    return TrialDraw(y=h @ x + w, h=h, design=design, codebook=book,
                     message=message), acks


def sample_noise(m: int, model: NoiseModel, x, rng) -> np.ndarray:
    """Draw one noise vector of length m for transmitted signal x."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if model.kind == "gaussian_unit":
        return model.scale * standard_normal(rng, m)
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    scale_e = model.sigma_e / math.sqrt(m * n)
    e = scale_e * standard_normal(rng, m * n).reshape(m, n)
    return model.scale * (e @ x + standard_normal(rng, m))


#: Channel model -> the `ChannelConfig` parameters it reads besides `noise`.
CHANNEL_MODELS = {
    "quasi_static_rayleigh": ("nt", "nr"),
    "mimo_ofdm": ("nt", "nr", "tones", "taps"),
    "naf_relay": (),
    "mimo_arq": ("nt", "nr", "arq_rounds", "arq_x_thresh"),
    "fixed": ("h_real",),
}


@dataclass
class ChannelConfig:
    """Which fading model to sample, and its dimensions/parameters.

    A parameter the model does not read must keep its default, so a
    mistyped model cannot silently run a different channel."""

    model: str
    nt: int = 1
    nr: int = 1
    tones: int = 1
    taps: int = 1
    h_real: np.ndarray | None = None
    noise: NoiseModel = NoiseModel()
    arq_rounds: int = 1
    arq_x_thresh: float | None = None

    def __post_init__(self):
        if not isinstance(self.model, str) or self.model not in CHANNEL_MODELS:
            raise ValueError(f"unknown channel model {self.model!r}, "
                             f"expected one of {sorted(CHANNEL_MODELS)}")
        if not isinstance(self.noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel, got {self.noise!r}")
        reads = CHANNEL_MODELS[self.model] + ("model", "noise")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in reads and (value is not None if f.default is None
                                        else value != f.default):
                raise ValueError(f"the {self.model} model does not read {f.name}")
        self.nt, self.nr, self.tones, self.taps, self.arq_rounds = (
            as_integer(getattr(self, name), name, 1)
            for name in ("nt", "nr", "tones", "taps", "arq_rounds"))
        if self.model == "fixed":
            if self.h_real is None:
                raise ValueError("fixed channel requires h_real")
            self.h_real = as_matrix(self.h_real, "h_real")
        if self.model == "mimo_arq":
            self.arq_x_thresh = as_real(self.arq_x_thresh, "arq_x_thresh")
            if not math.isfinite(self.arq_x_thresh):
                raise ValueError("ARQ channel requires a finite x_thresh (no default)")

    def real_dims(self, t: int) -> tuple[int, int]:
        """Real (output, input) dimensions of one draw over a t-use
        codeword (of one round, for ARQ)."""
        if self.model == "fixed":
            return self.h_real.shape
        if self.model == "naf_relay":
            return 4, 4  # whitened 2x2 complex channel
        return 2 * self.nr * t, 2 * self.nt * t

    def _uses_per_tone(self, t: int) -> int:
        if t % self.tones != 0:
            raise ValueError("coding duration must be a multiple of the tone count")
        return t // self.tones

    def check_design(self, design: LatticeDesign) -> None:
        """Raise ValueError unless `design` can be sent over this channel."""
        t = design.coding_duration
        if self.model == "mimo_arq" and design.region.kind != "box":
            raise ValueError("ARQ sweeps support box shaping regions only")
        if self.model == "mimo_ofdm":
            self._uses_per_tone(t)
        if self.model == "naf_relay" and t != 2:
            raise ValueError(f"the NAF relay frame is 2 channel uses, "
                             f"coding_duration is {t}")
        dims = self.real_dims(t)[1]
        if dims != design.dimension:
            raise ValueError(f"channel gives {dims} input dims, "
                             f"design has {design.dimension}")

    def sample(self, t: int, rho: float, rng) -> np.ndarray:
        """Real-embedded matrix of one non-ARQ channel draw over t uses."""
        if self.model == "quasi_static_rayleigh":
            return sample_quasi_static_rayleigh(self.nt, self.nr, t, rho, rng)
        if self.model == "mimo_ofdm":
            return sample_mimo_ofdm(self.nt, self.nr, self.tones, self.taps,
                                    self._uses_per_tone(t), rho, rng)
        if self.model == "naf_relay":
            return sample_naf_relay(rho, rng)
        if self.model == "fixed":
            return fixed_channel(self.h_real)
        raise ValueError(f"cannot sample model {self.model!r} directly")

    def cell_codebooks(self, design: LatticeDesign, rho: float, r: float) -> list:
        """The rungs [(design_l, codebook_l)] a sweep cell at (rho, r)
        decodes on, all built here: the design itself at rate r or, for
        ARQ, fragment l (1-based, rounds 1..l tiled) at rate r/l, each
        enumerated at its scale phi_l (`codebook_l.scale`)."""
        designs = (_arq_fragments(design, self.arq_rounds)
                   if self.model == "mimo_arq" else [design])
        return [(d, enumerate_codebook(
                    d, scaling_factor(rho, r / l, d.coding_duration, d.dimension)))
                for l, d in enumerate(designs, start=1)]

    def trial_sampler(self, rungs: list, rho: float, stream):
        """Trial index -> TrialDraw on a cell's `cell_codebooks` rungs; builds nothing.

        `stream(trial, *sub)` gives a trial's random stream.  A plain trial
        draws channel, message and noise from `stream(trial)`; an ARQ
        episode draws its channel there and its message and noise from
        `stream(trial, 1)`, and is decoded on the rung of its stopping
        round."""
        if self.model == "mimo_arq":
            def draw_arq(trial: int) -> TrialDraw:
                hc = complex_gaussian(stream(trial), (self.nr, self.nt))
                return simulate_arq_episode(rungs, hc, rho, self.arq_x_thresh,
                                            stream(trial, 1), self.noise)[0]

            return draw_arq

        [(design, codebook)] = rungs

        def draw(trial: int) -> TrialDraw:
            rng = stream(trial)
            h = self.sample(design.coding_duration, rho, rng)
            msg = int(rng.integers(codebook.size))
            x = codebook.points[msg]
            y = h @ x + sample_noise(h.shape[0], self.noise, x, rng)
            return TrialDraw(y=y, h=h, design=design, codebook=codebook, message=msg)

        return draw
