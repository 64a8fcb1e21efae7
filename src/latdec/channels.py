"""Fading-channel samplers, the real embedding, and noise models.

Complex channels are numpy complex128 arrays.  Every sampler returns the
real-embedded matrix actually used by the decoders:

    H = sqrt(rho) * I_T (x) [[Re Hc, -Im Hc], [Im Hc, Re Hc]]

so a length-2*nT*T real input vector stacks [Re x_t; Im x_t] per channel
use.  The signal level rho rides inside H; noise is unit variance per
real dimension.

Randomness: all Gaussians come from explicit Box-Muller over a
counter-based generator (Philox keyed through SeedSequence), so replays
are bit-identical across platforms.  `trial_rng` derives one independent
stream per (experiment seed, integer key tuple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoders import decode
from .errors import NotPositiveDefinite
from .lattice import Codebook, LatticeDesign, enumerate_codebook, scaling_factor

__all__ = [
    "NoiseModel",
    "ArqEpisode",
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
    "arq_codebooks",
    "draw_arq_trial",
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
        if not (0.0 <= self.sigma_e < math.inf and 0.0 <= self.scale < math.inf):
            raise ValueError("sigma_e and scale must be nonnegative and finite")


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based per-trial stream: hash (seed, key...) into a Philox
    generator.  Same inputs give the same stream on every platform."""
    entropy = int(seed) & (2**64 - 1)
    spawn = tuple(int(k) & 0xFFFFFFFF for k in key)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn)
    return np.random.Generator(np.random.Philox(ss))


def standard_normal(rng, size: int) -> np.ndarray:
    """size i.i.d. N(0, 1) samples via Box-Muller."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    pairs = (size + 1) // 2
    if pairs == 0:
        return np.zeros(0)
    u1 = 1.0 - rng.random(pairs)   # (0, 1]: keeps the log finite
    u2 = rng.random(pairs)
    rad = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = rad * np.cos(2.0 * np.pi * u2)
    out[1::2] = rad * np.sin(2.0 * np.pi * u2)
    return out[:size]


def complex_gaussian(rng, shape) -> np.ndarray:
    """Circular complex Gaussians, unit variance per entry (so the real
    and imaginary parts each carry variance 1/2)."""
    count = int(np.prod(shape)) if np.ndim(shape) else int(shape)
    if count == 0:
        return np.zeros(shape, dtype=np.complex128)
    u1 = 1.0 - rng.random(count)
    u2 = rng.random(count)
    rad = np.sqrt(-np.log(u1))     # variance 1/2 per quadrature
    z = rad * np.cos(2.0 * np.pi * u2) + 1j * rad * np.sin(2.0 * np.pi * u2)
    return z.reshape(shape)


def embed_complex(hc, t: int, rho: float) -> np.ndarray:
    """Real embedding of a complex channel over t uses, with the signal
    level folded in: sqrt(rho) * I_t (x) [[Re, -Im], [Im, Re]]."""
    hc = np.asarray(hc, dtype=np.complex128)
    if t < 1:
        raise ValueError("t must be >= 1")
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    block = np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])
    return math.sqrt(rho) * np.kron(np.eye(t), block)


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
    blocks = [embed_complex(tone_mats[l], t, rho) for l in range(tones)]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    h = np.zeros((rows, cols))
    ro = co = 0
    for b in blocks:
        h[ro:ro + b.shape[0], co:co + b.shape[1]] = b
        ro += b.shape[0]
        co += b.shape[1]
    return h


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

    def decoded_by(self, outcome) -> bool:
        """True iff a decode outcome is the transmitted codeword."""
        return outcome.is_codeword and np.array_equal(
            outcome.coords, self.codebook.coords[self.message])


def arq_codebooks(fragments, rho: float, r1: float,
                  integer_nesting: bool = False) -> list:
    """Check the fragment ladder and enumerate each fragment's codebook.

    Fragment l (1-based) is decoded after round l at rate r1/l; it must
    cover l rounds of fragment 1: l times its dimension and its coding
    duration."""
    if len(fragments) < 1:
        raise ValueError("need at least one fragment design")
    base = fragments[0]
    for l, frag in enumerate(fragments, start=1):
        if (frag.dimension, frag.coding_duration) != (
                l * base.dimension, l * base.coding_duration):
            raise ValueError(f"fragment {l} must span {l} rounds of fragment 1: "
                             f"dimension {l * base.dimension}, coding duration "
                             f"{l * base.coding_duration}")
    return [enumerate_codebook(frag, scaling_factor(
                rho, r1 / l, frag.coding_duration, frag.dimension,
                integer_nesting=integer_nesting))
            for l, frag in enumerate(fragments, start=1)]


def draw_arq_trial(fragments, books, hc, rho: float, x_thresh: float,
                   rng, noise: NoiseModel) -> tuple[TrialDraw, list]:
    """Draw one ARQ episode over long-term static fading up to its
    stopping round; returns the block decoded there and the ACK history.

    `books` are the fragments' codebooks from `arq_codebooks`.  Rounds
    1..L-1 stop on ACK; round L always stops.  A message index is drawn
    uniformly below the smallest codebook size and encoded by the
    stopping fragment through its canonical codebook order; each round
    adds its own noise."""
    hc = np.asarray(hc, dtype=np.complex128)
    base = fragments[0]
    h_round = embed_complex(hc, base.coding_duration, rho)
    m_round, dim_round = h_round.shape
    if dim_round != base.dimension:
        raise ValueError(f"fragment 1 dimension {base.dimension} != {dim_round} "
                         "channel input dims per round")
    rounds = len(fragments)
    acks = []
    for l in range(1, rounds + 1):
        acks.append(l == rounds or arq_ack(hc, rho, x_thresh, l))
        if acks[-1]:
            break
    stop = len(acks)
    book = books[stop - 1]
    message = int(rng.integers(min(b.size for b in books)))
    x = book.points[message]
    w = np.concatenate([
        sample_noise(m_round, noise, x[j * dim_round:(j + 1) * dim_round], rng)
        for j in range(stop)])
    h = np.kron(np.eye(stop), h_round)
    return TrialDraw(y=h @ x + w, h=h, design=fragments[stop - 1],
                     codebook=book, message=message), acks


@dataclass
class ArqEpisode:
    """One incremental-redundancy episode."""

    rounds_used: int
    error: bool
    ack_history: list
    outcome_kind: str
    message: int


def simulate_arq_episode(fragments, hc, rho: float, r1: float,
                         x_thresh: float, method: str, rng,
                         gate=None, noise: NoiseModel | None = None,
                         node_budget: int = 10**8) -> ArqEpisode:
    """Run and decode one ARQ episode (see `draw_arq_trial`).

    `fragments[l-1]` is the design decoded after round l (its coding
    duration covers rounds 1..l, and its rate is r1/l).  The episode errs
    iff the decode at the stopping round is not the transmitted codeword."""
    books = arq_codebooks(fragments, rho, r1)
    draw, acks = draw_arq_trial(fragments, books, hc, rho, x_thresh, rng,
                                noise or NoiseModel())
    outcome = decode(draw.y, draw.h, draw.design, draw.codebook.scale, method,
                     rho=rho, gate=gate, codebook=draw.codebook,
                     node_budget=node_budget)
    return ArqEpisode(rounds_used=len(acks), error=not draw.decoded_by(outcome),
                      ack_history=acks, outcome_kind=outcome.kind,
                      message=draw.message)


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
