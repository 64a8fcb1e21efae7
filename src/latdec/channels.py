"""Channel models: configuration, samplers, the real embedding, noise.

`ChannelConfig` is the one place that knows the channel models: it checks
a design against its model, builds a sweep cell's codebooks once
(`cell_codebooks`: the design at rate r, or each ARQ fragment l at rate
r/l) and draws a block of the cell's trials on them at once
(`draw_block`), ARQ episodes included.  This layer decodes nothing.

Complex channels are numpy complex128 arrays.  Every sampler returns the
real-embedded matrix used by the decoders: for a stack of k complex
matrices Hc_l (k = 1 for flat fading, one per tone for OFDM) over T uses
each, the block diagonal

    H = sqrt(rho) * diag(I_T (x) B_1, ..., I_T (x) B_k),
    B_l = [[Re Hc_l, -Im Hc_l], [Im Hc_l, Re Hc_l]],

so a length-2*nT*k*T real input vector stacks [Re x_u; Im x_u] per
channel use u.  The signal level rho rides inside H; noise is unit
variance per real dimension.

Randomness: `trial_rng` derives one independent stream per (experiment
seed, integer key tuple): numpy's SeedSequence hash of the key (O'Neill's
`hashmix`/`mix` on a pool of four 32-bit words, the seed padded to four
words before the key) gives the key of a Philox4x64-10 counter generator
(Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1,
2, 3", SC 2011).  A uniform is the top 53 bits of a 64-bit output times
2^-53, an index below `size` is Lemire's multiply-and-reject on 32-bit
halves ("Fast random integer generation in an interval", ACM TOMACS
2019), and every Gaussian is an explicit Box-Muller pair over two
uniforms, so replays are bit-identical across platforms.  `TrialStreams`
runs the same algorithms written out on numpy columns, one lane per trial,
so a block's draws are those of its trials' own `trial_rng` streams, bit
for bit; the samplers read either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NotPositiveDefinite
from .lattice import (Codebook, LatticeDesign, ShapingRegion, enumerate_codebook,
                      scaling_factor)
from .numkernel import as_integer, as_matrix, as_real, matvec

__all__ = [
    "ChannelConfig",
    "NoiseModel",
    "trial_rng",
    "TrialStreams",
    "standard_normal",
    "complex_gaussian",
    "embed_complex",
    "sample_quasi_static_rayleigh",
    "sample_mimo_ofdm",
    "sample_naf_relay",
    "fixed_channel",
    "arq_ack",
    "TrialDraw",
    "BlockDraw",
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


_M32 = 0xFFFFFFFF
# numpy's SeedSequence: the hash constants of `hashmix`, of `mix` and of
# `generate_state`.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# Philox4x64: the round multipliers and the Weyl increments of the key.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _hash_constants(first: int, mult: int, count: int) -> list:
    """The hash constants a SeedSequence walks through: first * mult^i."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


def _mix(x, y):
    """SeedSequence's `mix` of pool word x and hashed word y (ints or uint32 arrays)."""
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def _philox_keys(seed: int, key: tuple, trials: np.ndarray, sub: tuple) -> np.ndarray:
    """The (2, B) Philox keys of SeedSequence(entropy=seed, spawn_key=(*key,
    trial, *sub)).generate_state(2, uint64) for each trial: the words
    before the trial are hashed once in ints, the rest as uint32 columns,
    since the hash constants do not depend on the data."""
    entropy, words = int(seed) & (2**64 - 1), []
    while True:
        words.append(entropy & _M32)
        entropy >>= 32
        if not entropy:
            break
    words += [0] * (4 - len(words))   # the run entropy fills the pool of 4
    consts = iter(_hash_constants(_INIT_A, _MULT_A, 4 * (4 + len(key) + 1 + len(sub))))
    c = next(consts)

    def hashmix(value):
        nonlocal c
        c_in, c = c, next(consts)
        value = (value ^ c_in) * c & _M32
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in key:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(int(w) & _M32))
    pool = np.array(pool, dtype=np.uint32)[:, None]
    column = (np.asarray(trials, dtype=np.int64) & _M32).astype(np.uint32)
    for w in (column, *(np.uint32(int(k) & _M32) for k in sub)):
        # One word into every pool word, each with its own constant.
        c_in = np.array([c] + [next(consts) for _ in range(3)], dtype=np.uint32)[:, None]
        c = next(consts)
        c_out = np.append(c_in[1:, 0], np.uint32(c))[:, None]
        hashed = (w ^ c_in) * c_out
        pool = _mix(pool, hashed ^ (hashed >> 16))
    b = np.array(_hash_constants(_INIT_B, _MULT_B, 4), dtype=np.uint32)[:, None]
    state = (pool ^ b[:4]) * b[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)   # little-endian pairs: key words 0, 1


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple:
    """High and low 64-bit words of the 128-bit products a * b (uint64),
    from 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    carry = (mid & _M32) + a0 * b1
    return a1 * b1 + (mid >> 32) + (carry >> 32), a * b


def _philox(key: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of (2, B) keys at counters (c, 0, 0, 0): (B, 4 C) words,
    each counter's four in order."""
    m = np.array(_PHILOX_M, dtype=np.uint64)[:, None, None]
    w = np.array(_PHILOX_W, dtype=np.uint64)[:, None, None]
    key = key[:, :, None]
    even = np.zeros((2,) + key.shape[1:2] + counters.shape, dtype=np.uint64)
    even[0] = counters
    odd = np.zeros_like(even)   # counter words (0, 2) and (1, 3)
    for _ in range(10):
        hi, lo = _mulhilo(m, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
        key = key + w
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(
        even.shape[1], -1)


class TrialStreams:
    """The streams `trial_rng(seed, *key, trial, *sub)` of several trials
    at once, one lane per trial, read as numpy's Generator reads its own:
    `random(count)` and `integers(size)` give (B, count) and (B,) arrays
    whose row b is what trial b's Generator gives, bit for bit.  Each lane
    reads its own 64-bit words in order (Philox counters from 1, four words
    each, drawn as reads need them, at least 16 words at a time: one
    Philox pass covers a whole trial of the small models)."""

    def __init__(self, seed: int, key: tuple, trials, sub: tuple = ()):
        self.lanes = len(trials)
        self._key = _philox_keys(seed, tuple(key), trials, tuple(sub))
        self._words = np.empty((self.lanes, 0), dtype=np.uint64)
        self._at = 0   # next word of every lane, or of each once they differ
        self._half = np.zeros(self.lanes, dtype=np.uint64)   # unused high halves
        self._has_half = np.zeros(self.lanes, dtype=bool)

    def _fill(self, end: int) -> None:
        have = self._words.shape[1]
        if end > have:
            end = max(end, have + 16)
            counters = np.arange(have // 4 + 1, -(-end // 4) + 1, dtype=np.uint64)
            self._words = np.concatenate([self._words, _philox(self._key, counters)],
                                         axis=1)

    def raw(self, count: int) -> np.ndarray:
        """Each lane's next `count` 64-bit words, (B, count)."""
        at, end = self._at, self._at + count
        self._fill(int(np.max(end, initial=0)))
        self._at = end
        if isinstance(at, int):
            return self._words[:, at:end]
        return np.take_along_axis(self._words, at[:, None] + np.arange(count), axis=1)

    def random(self, count: int) -> np.ndarray:
        """`Generator.random(count)` of each lane: (word >> 11) * 2^-53."""
        return (self.raw(count) >> 11) * (1.0 / 9007199254740992.0)

    def _next_uint32(self, lane: int) -> int:
        """numpy's buffered 32-bit draw for one lane: the unused high half
        of the lane's last word, else the low half of its next word."""
        if self._has_half[lane]:
            self._has_half[lane] = False
            return int(self._half[lane])
        if isinstance(self._at, int):
            self._at = np.full(self.lanes, self._at)
        self._fill(int(self._at[lane]) + 1)
        word = int(self._words[lane, self._at[lane]])
        self._at[lane] += 1
        self._has_half[lane], self._half[lane] = True, word >> 32
        return word & _M32

    def integers(self, size: int) -> np.ndarray:
        """`Generator.integers(size)` of each lane, 1 <= size < 2^32:
        Lemire's multiply-and-reject on buffered 32-bit draws (a word's low
        half, then its high half).  A range of one value draws nothing."""
        if not 1 <= size <= _M32:
            raise ValueError(f"size must be in [1, 2^32), got {size}")
        if size == 1:
            return np.zeros(self.lanes, dtype=np.int64)
        if not self._has_half.any():   # every draw a sweep makes
            word = self.raw(1)[:, 0]
            draw, self._half = word & _M32, word >> 32
            self._has_half[:] = True
        else:
            draw = np.array([self._next_uint32(lane) for lane in range(self.lanes)],
                            dtype=np.uint64)
        product = draw * np.uint64(size)
        out = (product >> 32).astype(np.int64)
        threshold = (2**32 - size) % size
        for lane in np.flatnonzero((product & _M32) < threshold).tolist():
            while True:   # redraws: rare, one lane at a time
                product = self._next_uint32(lane) * size
                if product & _M32 >= threshold:
                    out[lane] = product >> 32
                    break
        return out


def _box_muller(rng, count: int, var: float) -> tuple[np.ndarray, np.ndarray]:
    """The package's one Gaussian draw: count Box-Muller pairs (c, s) of
    N(0, var), from u1, then u2, as radius sqrt(-2 var log u1) at angle 2 pi u2.
    From `TrialStreams` each is a (B, count) stack."""
    u1 = 1.0 - rng.random(count)   # (0, 1]: keeps the log finite
    u2 = rng.random(count)
    rad = np.sqrt(-2.0 * var * np.log(u1))
    return rad * np.cos(2.0 * np.pi * u2), rad * np.sin(2.0 * np.pi * u2)


def standard_normal(rng, size: int) -> np.ndarray:
    """size i.i.d. N(0, 1) samples: each pair's cosine, then its sine
    ((B, size) from `TrialStreams`)."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    c, s = _box_muller(rng, (size + 1) // 2, 1.0)
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
    out[..., 0::2], out[..., 1::2] = c, s
    return out[..., :size]


def complex_gaussian(rng, shape) -> np.ndarray:
    """Circular complex Gaussians, unit variance per entry (so the real
    and imaginary parts each carry variance 1/2); (B, *shape) from
    `TrialStreams`."""
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    c, s = _box_muller(rng, math.prod(shape), 0.5)
    return (c + 1j * s).reshape(c.shape[:-1] + shape)


def embed_complex(hc, t: int, rho: float) -> np.ndarray:
    """Real embedding of one complex channel (nr, nt) or a stack (k, nr, nt)
    over t uses each, with the signal level folded in: the block diagonal
    of the k blocks sqrt(rho) [[Re, -Im], [Im, Re]], each repeated t times."""
    hc = np.asarray(hc, dtype=np.complex128)
    return _embed(hc.reshape((-1,) + hc.shape[-2:]), t, rho)


def _embed(hc: np.ndarray, t: int, rho: float) -> np.ndarray:
    """`embed_complex` of each (k, nr, nt) stack of hc (..., k, nr, nt)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    re, im = math.sqrt(rho) * hc.real, math.sqrt(rho) * hc.imag
    blocks = np.concatenate([np.concatenate([re, -im], axis=-1),
                             np.concatenate([im, re], axis=-1)], axis=-2)
    return _block_diagonal(np.repeat(blocks, t, axis=-3))


def _block_diagonal(blocks) -> np.ndarray:
    """Block-diagonal matrix of a stack of equal-shape blocks (m, p, q), or
    of each such stack of (..., m, p, q)."""
    *lead, m, p, q = blocks.shape
    out = np.zeros((*lead, m, p, m, q))
    out[..., np.arange(m), :, np.arange(m), :] = np.moveaxis(blocks, -3, 0)
    return out.reshape(*lead, m * p, m * q)


def sample_quasi_static_rayleigh(nt: int, nr: int, t: int, rho: float,
                                 rng) -> np.ndarray:
    """i.i.d. unit-variance complex Gaussian fading, constant over the
    coding block (a (B, m, n) stack from `TrialStreams`)."""
    return _embed(complex_gaussian(rng, (1, nr, nt)), t, rho)


def sample_mimo_ofdm(nt: int, nr: int, tones: int, taps: int, t: int,
                     rho: float, rng) -> np.ndarray:
    """Frequency-selective block fading: `taps` i.i.d. matrix taps, a DFT
    across `tones` parallel tones, block-diagonal real embedding (a
    (B, m, n) stack from `TrialStreams`).

    One codeword spans tones * t channel uses."""
    if tones < 1 or taps < 1:
        raise ValueError("tones and taps must be >= 1")
    tap_mats = complex_gaussian(rng, (taps, nr * nt))
    lead = tap_mats.shape[:-2]
    tone_mats = np.zeros(lead + (tones, nr, nt), dtype=np.complex128)
    for l in range(tones):
        # A vector-matrix matmul per lane: the BLAS call (dot, gemv or a
        # scalar product) np.tensordot makes for one lane's taps.
        phase = np.exp(-2j * np.pi * np.arange(taps) * l / tones)
        tone_mats[..., l, :, :] = (phase @ tap_mats).reshape(lead + (nr, nt))
    return _embed(tone_mats, t, rho)


def sample_naf_relay(rho: float, rng) -> np.ndarray:
    """Single-relay nonorthogonal amplify-and-forward cooperation,
    whitened into an equivalent 2x2 complex channel (a (B, 4, 4) stack from
    `TrialStreams`).

    h1: source-destination, h2: source-relay, h3: relay-destination.
    The relay gain b is maximal under its unit power constraint,
    |b|^2 (rho |h2|^2 + 1) = 1.  Amplified relay noise is whitened away,
    leaving the lower-triangular equivalent matrix.  One codeword spans
    two channel uses."""
    draws = complex_gaussian(rng, 3)
    hc = np.array([_naf_equivalent(h1, h2, h3, rho)
                   for h1, h2, h3 in draws.reshape(-1, 3)])
    return _embed(hc.reshape(draws.shape[:-1] + (1, 2, 2)), 1, rho)


def _naf_equivalent(h1, h2, h3, rho: float) -> np.ndarray:
    """The whitened 2x2 complex channel of one relay draw, on scalars."""
    b = 1.0 / math.sqrt(rho * abs(h2) ** 2 + 1.0)
    denom = math.sqrt(rho * abs(b * h3) ** 2 + 1.0)
    return np.array([
        [h1, 0.0],
        [math.sqrt(rho) * b * h2 * h3 / denom, h1 / denom],
    ], dtype=np.complex128)


def fixed_channel(h_real) -> np.ndarray:
    """Deterministic channel (the real matrix itself, the same on every
    draw) for oracle and regression tests."""
    return np.asarray(h_real, dtype=np.float64)


def _gram_logdet(hc, rho: float) -> tuple:
    """slogdet of I + rho Hc Hc^H, of one channel or each of a stack."""
    gram = (np.eye(hc.shape[-2], dtype=np.complex128)
            + rho * (hc @ np.swapaxes(hc.conj(), -1, -2)))
    return np.linalg.slogdet(gram)


_NOT_POSITIVE = "mutual-information Gram matrix not positive"


def arq_ack(hc, rho: float, x_thresh: float, round_index: int) -> bool:
    """Rate-confirmation rule for round l: the per-round mutual
    information log det(I + rho Hc Hc^H) must reach (x/l) log rho.
    Natural logs on both sides (the base cancels)."""
    hc = np.asarray(hc, dtype=np.complex128)
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    if round_index < 1:
        raise ValueError("round_index must be >= 1")
    sign, logdet = _gram_logdet(hc, rho)
    if sign.real <= 0.0:
        raise NotPositiveDefinite(_NOT_POSITIVE)
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


@dataclass
class BlockDraw:
    """A block of trials, drawn at once and grouped by the rung each is
    decoded on: `stacks[rung]` is (lanes, y, H, messages), the block's
    lanes on that rung in order and their stacked received vectors,
    channels and sent message indices, or None if no lane is.  `failure`
    is (lane, LatdecError) of the first lane whose draw raised, which ends
    the block: the lanes before it are drawn, none after."""

    stacks: list
    failure: tuple | None = None


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
    """Draw one noise vector of length m for transmitted signal x, or,
    from `TrialStreams`, one per lane for the stack x (B, n)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if model.kind == "gaussian_unit":
        return model.scale * standard_normal(rng, m)
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    scale_e = model.sigma_e / math.sqrt(m * n)
    e = scale_e * standard_normal(rng, m * n).reshape(x.shape[:-1] + (m, n))
    return model.scale * (matvec(e, x) + standard_normal(rng, m))


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

    def sample(self, t: int, rho: float, streams: TrialStreams) -> np.ndarray:
        """Real-embedded matrices (B, m, n) of one non-ARQ channel draw over
        t uses per lane of `streams`."""
        if self.model == "quasi_static_rayleigh":
            return sample_quasi_static_rayleigh(self.nt, self.nr, t, rho, streams)
        if self.model == "mimo_ofdm":
            return sample_mimo_ofdm(self.nt, self.nr, self.tones, self.taps,
                                    self._uses_per_tone(t), rho, streams)
        if self.model == "naf_relay":
            return sample_naf_relay(rho, streams)
        if self.model == "fixed":
            h = fixed_channel(self.h_real)
            return np.broadcast_to(h, (streams.lanes,) + h.shape)
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

    def draw_block(self, rungs: list, rho: float, seed: int, key: tuple,
                   trials) -> BlockDraw:
        """The trials `trials` of a cell, on its `cell_codebooks` rungs, drawn
        at once: lane b is trial trials[b], whose draw is the one its own
        streams `trial_rng(seed, *key, trial[, 1])` give, bit for bit.

        A plain trial draws channel, message and noise from the trial's
        stream.  An ARQ episode draws its channel there, stops at its first
        ACK (round L always stops), and draws its message and each round's
        noise from the trial's sub-stream 1; its lane is decoded on the rung
        of its stopping round."""
        if self.model == "mimo_arq":
            return self._draw_arq(rungs, rho, seed, key, trials)
        [(design, book)] = rungs
        streams = TrialStreams(seed, key, trials)
        h = self.sample(design.coding_duration, rho, streams)
        messages = streams.integers(book.size)
        x = book.points[messages]
        y = matvec(h, x) + sample_noise(h.shape[-2], self.noise, x, streams)
        return BlockDraw([(np.arange(len(trials)), y, h, messages)])

    def _draw_arq(self, rungs, rho, seed, key, trials) -> BlockDraw:
        hc = complex_gaussian(TrialStreams(seed, key, trials), (self.nr, self.nt))
        rounds, failure = len(rungs), None
        stops = np.full(len(trials), rounds)
        if rounds > 1:   # the last round stops without asking
            sign, logdet = _gram_logdet(hc, rho)
            bad = np.flatnonzero(sign.real <= 0.0)
            if bad.size:   # the first lane whose round-1 ACK raises ends the block
                failure = (int(bad[0]), NotPositiveDefinite(_NOT_POSITIVE))
                trials, hc, stops, logdet = (a[:bad[0]] for a in (trials, hc, stops, logdet))
            for l in range(rounds - 1, 0, -1):
                stops[logdet >= (self.arq_x_thresh / l) * math.log(rho)] = l
        if not len(trials):
            return BlockDraw([None] * rounds, failure)
        uses = rungs[0][0].coding_duration
        m, n = self.real_dims(uses)
        streams = TrialStreams(seed, key, trials, sub=(1,))
        messages = streams.integers(min(book.size for _, book in rungs))
        lanes = [np.flatnonzero(stops == l) for l in range(1, rounds + 1)]
        xs = [book.points[messages[on]] for (_, book), on in zip(rungs, lanes)]
        noise = []
        for j in range(stops.max()):   # every lane reads round j; lanes past theirs drop it
            x_j = np.zeros((len(trials), n))
            for on, x in zip(lanes[j:], xs[j:]):
                x_j[on] = x[:, j * n:(j + 1) * n]
            noise.append(sample_noise(m, self.noise, x_j, streams))
        stacks = [None] * rounds
        for l, on, x in zip(range(1, rounds + 1), lanes, xs):
            if on.size:
                h = _embed(hc[on][:, None], l * uses, rho)
                w = np.concatenate([w_j[on] for w_j in noise[:l]], axis=-1)
                stacks[l - 1] = (on, matvec(h, x) + w, h, messages[on])
        return BlockDraw(stacks, failure)
