"""Channel samplers: real embeddings, fading statistics, relay whitening
algebra, rate-confirmation feedback, and incremental-redundancy episodes."""

import math

import numpy as np
import pytest

from latdec import channels
from latdec.channels import (
    ChannelConfig,
    NoiseModel,
    TrialStreams,
    arq_ack,
    complex_gaussian,
    embed_complex,
    fixed_channel,
    sample_mimo_ofdm,
    sample_naf_relay,
    sample_noise,
    sample_quasi_static_rayleigh,
    simulate_arq_episode,
    standard_normal,
    trial_rng,
)
from latdec.decoders import decode
from latdec.lattice import LatticeDesign, ShapingRegion, enumerate_codebook, scaling_factor
from per_trial import prepare, trial_sampler


def square_design(n, t=1, half_width=0.6):
    return LatticeDesign(
        generator=np.eye(n),
        region=ShapingRegion.box(np.full(n, half_width)),
        coding_duration=t,
        dither=np.full(n, 0.5),
    )


def test_trial_rng_deterministic_and_keyed():
    a = trial_rng(7, 1, 2, 3).random(5)
    b = trial_rng(7, 1, 2, 3).random(5)
    assert np.array_equal(a, b)
    c = trial_rng(7, 1, 2, 4).random(5)
    assert not np.array_equal(a, c)
    d = trial_rng(8, 1, 2, 3).random(5)
    assert not np.array_equal(a, d)


def test_standard_normal_moments():
    rng = trial_rng(1234, 0)
    x = standard_normal(rng, 100000)
    assert abs(float(np.mean(x))) < 0.02
    assert abs(float(np.var(x)) - 1.0) < 0.02
    # Central mass of the standard normal: P(|X| < 1) = 0.6827.
    frac = float(np.mean(np.abs(x) < 1.0))
    assert abs(frac - 0.6826894921370859) < 0.01
    assert standard_normal(rng, 0).shape == (0,)
    assert standard_normal(rng, 3).shape == (3,)


def test_complex_gaussian_quadrature_variance():
    rng = trial_rng(5678, 0)
    z = complex_gaussian(rng, 50000)
    assert abs(float(np.mean(z.real))) < 0.02
    assert abs(float(np.mean(z.imag))) < 0.02
    assert abs(float(np.var(z.real)) - 0.5) < 0.02
    assert abs(float(np.var(z.imag)) - 0.5) < 0.02
    assert complex_gaussian(rng, (3, 4)).shape == (3, 4)


def _standard_normal_reference(rng, size):
    """`standard_normal` as it was written before the shared Box-Muller
    helper: the differential reference for its bits."""
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    rad = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = rad * np.cos(2.0 * np.pi * u2)
    out[1::2] = rad * np.sin(2.0 * np.pi * u2)
    return out[:size]


def _complex_gaussian_reference(rng, shape):
    """`complex_gaussian` as it was written before the shared helper."""
    count = int(np.prod(shape))
    u1 = 1.0 - rng.random(count)
    u2 = rng.random(count)
    rad = np.sqrt(-np.log(u1))
    z = rad * np.cos(2.0 * np.pi * u2) + 1j * rad * np.sin(2.0 * np.pi * u2)
    return z.reshape(shape)


# Every shape the samplers draw (Rayleigh, OFDM taps, the relay's three
# gains) and then some.
COMPLEX_SHAPES = [1, 3, (1, 1), (2, 2), (3, 2), (4, 4), (2, 2, 2), (3, 1, 2)]


def test_box_muller_matches_both_former_bodies_bit_for_bit():
    # Each stream draws a real block of size 1..17, then a complex block,
    # through the reference, and again from the same state through the
    # package; the draws and the stream state after them must agree.
    for key in range(100_000):
        rng = trial_rng(2309, key)
        state = rng.bit_generator.state
        size, shape = key % 17 + 1, COMPLEX_SHAPES[key % len(COMPLEX_SHAPES)]
        want = (_standard_normal_reference(rng, size),
                _complex_gaussian_reference(rng, shape), rng.random())
        rng.bit_generator.state = state
        got = (standard_normal(rng, size), complex_gaussian(rng, shape), rng.random())
        for w, g in zip(want, got):
            assert np.shape(w) == np.shape(g) and np.asarray(w).dtype == np.asarray(g).dtype
            assert np.asarray(w).tobytes() == np.asarray(g).tobytes(), key


def test_embed_complex_known_matrix():
    h = embed_complex(np.array([[1.0 + 2.0j]]), t=1, rho=4.0)
    assert np.allclose(h, [[2.0, -4.0], [4.0, 2.0]])
    # Two channel uses: block-diagonal copies.
    h2 = embed_complex(np.array([[1.0 + 2.0j]]), t=2, rho=4.0)
    assert h2.shape == (4, 4)
    assert np.allclose(h2[:2, :2], h)
    assert np.allclose(h2[2:, 2:], h)
    assert np.allclose(h2[:2, 2:], 0.0)
    assert np.allclose(h2[2:, :2], 0.0)


def _embed_oracle(stack, t, rho):
    """Block diagonal of sqrt(rho) I_t (x) [[Re, -Im], [Im, Re]] over the
    stack, written with np.kron and np.block."""
    blocks = [math.sqrt(rho) * np.kron(np.eye(t), np.block(
        [[h.real, -h.imag], [h.imag, h.real]])) for h in stack]
    zero = np.zeros_like(blocks[0])
    return np.block([[b if i == j else zero for j in range(len(blocks))]
                     for i, b in enumerate(blocks)])


def test_embed_complex_stack_matches_kron_block_oracle():
    rng = trial_rng(912, 0)
    for k, nr, nt in ((1, 1, 1), (1, 2, 2), (2, 1, 1), (3, 2, 1), (4, 1, 3)):
        stack = complex_gaussian(rng, (k, nr, nt))
        for t in (1, 2, 3):
            h = embed_complex(stack, t, 7.5)
            assert h.shape == (2 * nr * k * t, 2 * nt * k * t)
            assert np.array_equal(h, _embed_oracle(stack, t, 7.5))
            if k == 1:
                assert np.array_equal(embed_complex(stack[0], t, 7.5), h)


def test_embed_complex_is_multiplicative():
    # The real embedding at unit signal level is a ring homomorphism.
    rng = trial_rng(910, 0)
    for _ in range(50):
        a = complex_gaussian(rng, (2, 2))
        b = complex_gaussian(rng, (2, 2))
        left = embed_complex(a @ b, t=1, rho=1.0)
        right = embed_complex(a, t=1, rho=1.0) @ embed_complex(b, t=1, rho=1.0)
        assert np.allclose(left, right, atol=1e-12)


def test_embed_complex_energy():
    rng = trial_rng(911, 0)
    hc = complex_gaussian(rng, (3, 2))
    for t in (1, 2, 3):
        h = embed_complex(hc, t=t, rho=2.5)
        assert h.shape == (2 * 3 * t, 2 * 2 * t)
        want = 2.5 * t * 2.0 * float(np.sum(np.abs(hc) ** 2))
        assert float(np.sum(h * h)) == pytest.approx(want, rel=1e-12)


# The samplers return only the real matrix; each test rebuilds the complex
# draws behind it by replaying the same stream.

def test_rayleigh_sampler_shapes_and_statistics():
    rng, replay = trial_rng(1001, 0), trial_rng(1001, 0)
    total = 0.0
    count = 0
    for _ in range(400):
        h = sample_quasi_static_rayleigh(2, 2, 3, 10.0, rng)
        hc = complex_gaussian(replay, (2, 2))
        assert h.shape == (2 * 2 * 3, 2 * 2 * 3)
        assert np.array_equal(h, embed_complex(hc, 3, 10.0))
        total += float(np.sum(np.abs(hc) ** 2))
        count += hc.size
    assert abs(total / count - 1.0) < 0.1     # unit-variance entries


def test_ofdm_flat_when_single_tap():
    h = sample_mimo_ofdm(2, 2, 4, 1, 1, 9.0, trial_rng(1002, 0))
    [tap] = complex_gaussian(trial_rng(1002, 0), (1, 2, 2))
    # Four tones over one use each: four equal blocks on the diagonal.
    assert h.shape == (4 * 4, 4 * 4)
    blk = embed_complex(tap, 1, 9.0)
    for l in range(4):
        for k in range(4):
            want = blk if k == l else 0.0
            assert np.allclose(h[4 * l:4 * l + 4, 4 * k:4 * k + 4], want)


def test_ofdm_two_tap_transform_and_block_structure():
    h = sample_mimo_ofdm(1, 1, 2, 2, 1, 1.0, trial_rng(1003, 0))
    h0, h1 = complex_gaussian(trial_rng(1003, 0), (2, 1, 1))
    # Per-tone response H0 + H1 exp(-i pi l), embedded block-diagonally,
    # one block per tone.
    assert np.allclose(h[:2, :2], embed_complex(h0 + h1, 1, 1.0))
    assert np.allclose(h[2:, 2:], embed_complex(h0 - h1, 1, 1.0))
    assert np.allclose(h[:2, 2:], 0.0)
    assert np.allclose(h[2:, :2], 0.0)


def test_ofdm_tone_count_scales_dimension():
    rng = trial_rng(1004, 0)
    h = sample_mimo_ofdm(2, 3, 4, 3, 2, 2.0, rng)
    # Rows: tones * (2 nr t); cols: tones * (2 nt t).
    assert h.shape == (4 * 2 * 3 * 2, 4 * 2 * 2 * 2)


def test_naf_relay_whitening_algebra():
    rng, replay = trial_rng(1005, 0), trial_rng(1005, 0)
    rho = 7.0
    for _ in range(100):
        h = sample_naf_relay(rho, rng)
        h1, h2, h3 = complex_gaussian(replay, 3)
        # The relay gain saturates the unit power constraint
        # |b|^2 (rho |h2|^2 + 1) = 1; whitening the amplified relay noise
        # scales the relay row by 1/denom.
        b = 1.0 / math.sqrt(rho * abs(h2) ** 2 + 1.0)
        denom = math.sqrt(rho * abs(b * h3) ** 2 + 1.0)
        hc = np.array([[h1, 0.0],
                       [math.sqrt(rho) * b * h2 * h3 / denom, h1 / denom]])
        assert h.shape == (4, 4)
        assert np.allclose(h, embed_complex(hc, 1, rho), rtol=1e-12, atol=1e-12)


def test_fixed_channel_passthrough():
    h = fixed_channel([[2.0, 0.0], [0.0, 3.0]])
    assert h.dtype == np.float64
    assert np.array_equal(h, [[2.0, 0.0], [0.0, 3.0]])


@pytest.mark.parametrize("channel, t", [
    (ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=1), 3),
    (ChannelConfig(model="mimo_ofdm", nt=1, nr=2, tones=2, taps=2), 4),
    (ChannelConfig(model="naf_relay"), 2),
    (ChannelConfig(model="fixed", h_real=np.ones((3, 2))), 1),
])
def test_real_dims_match_a_draw(channel, t):
    streams = TrialStreams(3, (0,), np.arange(2))
    assert (2,) + channel.real_dims(t) == channel.sample(t, 10.0, streams).shape


def test_noise_model_validation():
    NoiseModel()
    NoiseModel(kind="self_interference", sigma_e=0.3)
    NoiseModel(scale=0.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="laplace")
    with pytest.raises(ValueError):
        NoiseModel(sigma_e=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(scale=-1.0)


def test_sample_noise_statistics():
    rng = trial_rng(1006, 0)
    w = np.concatenate([sample_noise(4, NoiseModel(scale=0.5),
                                     np.zeros(2), rng) for _ in range(5000)])
    assert abs(float(np.var(w)) - 0.25) < 0.01
    # Self-interference adds signal-dependent variance
    # sigma_e^2 ||x||^2 / (m n) per receive entry.
    x = np.array([2.0, -1.0])
    model = NoiseModel(kind="self_interference", sigma_e=0.8)
    w = np.concatenate([sample_noise(4, model, x, rng) for _ in range(5000)])
    want = 1.0 + 0.8 ** 2 * 5.0 / (4 * 2)
    assert abs(float(np.var(w)) - want) < 0.05


def test_arq_ack_rule():
    # Identity channel at rho = e: log det = 2 ln(1 + e).
    hc = np.eye(2, dtype=np.complex128)
    cap = 2.0 * math.log(1.0 + math.e)
    assert arq_ack(hc, math.e, cap - 1e-9, 1)
    assert not arq_ack(hc, math.e, cap + 1e-9, 1)
    # Later rounds divide the threshold.
    assert not arq_ack(hc, math.e, 2.0 * cap - 1e-9, 1)
    assert arq_ack(hc, math.e, 2.0 * cap - 1e-9, 2)
    with pytest.raises(ValueError):
        arq_ack(hc, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        arq_ack(hc, 2.0, 1.0, 0)


def test_arq_ack_frequency_matches_exponential_tail():
    # Scalar fading: ack at round 1 iff ln(1 + rho |h|^2) >= x ln rho,
    # i.e. |h|^2 >= (rho^x - 1)/rho.  |h|^2 is Exp(1), so the ack
    # probability is exp(-(rho^x - 1)/rho).
    rng = trial_rng(1007, 0)
    rho, x = 100.0, 1.0
    want = math.exp(-(rho ** x - 1.0) / rho)
    acks = 0
    n = 2000
    for _ in range(n):
        h = complex_gaussian(rng, (1, 1))
        acks += arq_ack(h, rho, x, 1)
    assert abs(acks / n - want) < 0.04


def arq_rungs(rounds, rho, r1, t=1):
    """(design, codebook) rungs of an ARQ cell over a scalar channel whose
    round fragment is `square_design(2 t, t)`, from `cell_codebooks`."""
    chan = ChannelConfig(model="mimo_arq", arq_rounds=rounds, arq_x_thresh=1.0)
    return chan.cell_codebooks(square_design(2 * t, t), rho, r1)


def test_draw_arq_trial_channel_is_round_blocks():
    # Three rounds of a two-use fragment: H of an episode stopping at
    # round l is l copies of the per-round embedding on the diagonal.
    rungs = arq_rungs(3, 20.0, 0.5, t=2)
    assert [d.dimension for d, _ in rungs] == [4, 8, 12]
    rng = trial_rng(1008, 0)
    stops = set()
    for _ in range(60):
        hc = complex_gaussian(rng, (1, 1))
        draw, acks = simulate_arq_episode(rungs, hc, 20.0, 1.2, rng, NoiseModel())
        stop = len(acks)
        stops.add(stop)
        want = np.kron(np.eye(stop), embed_complex(hc, 2, 20.0))
        assert np.array_equal(draw.h, want)
        design, book = rungs[stop - 1]
        assert draw.design is design and draw.codebook is book
    assert stops == {1, 2, 3}


def arq_episode(rungs, hc, rho, x_thresh, method, rng, noise=NoiseModel()):
    """One episode drawn to its stopping round and decoded there: the
    draw, the ACK history and the decode outcome."""
    draw, acks = simulate_arq_episode(rungs, hc, rho, x_thresh, rng, noise)
    stage = prepare(draw.y, draw.h, draw.design, draw.codebook, rho=rho)
    return draw, acks, decode(stage, method=method)


def test_arq_episode_noiseless_strong_channel():
    rungs = arq_rungs(2, 100.0, 0.5)
    hc = np.array([[3.0 + 0.0j]])
    quiet = NoiseModel(scale=0.0)
    draw, acks, out = arq_episode(rungs, hc, 100.0, 1.0, "ml",
                                  trial_rng(42, 0), noise=quiet)
    # ln(1 + 100 * 9) = 6.80 >= 1.0 * ln 100 = 4.61: ack in round 1.
    assert acks == [True]
    assert out.is_codeword and np.array_equal(out.coords, draw.codebook.coords[draw.message])
    assert out.kind == "codeword"


def test_arq_episode_noiseless_weak_channel_uses_final_round():
    rungs = arq_rungs(2, 100.0, 0.5)
    hc = np.array([[0.1 + 0.0j]])
    quiet = NoiseModel(scale=0.0)
    draw, acks, out = arq_episode(rungs, hc, 100.0, 1.0, "ml",
                                  trial_rng(43, 0), noise=quiet)
    # ln(1 + 100 * 0.01) = 0.69 < 4.61: round 1 NACKs; the final round
    # always decodes, and without noise it decodes correctly.
    assert acks == [False, True]
    assert draw.design is rungs[1][0]
    assert out.is_codeword and np.array_equal(out.coords, draw.codebook.coords[draw.message])


def test_arq_episode_randomness_is_keyed():
    rungs = arq_rungs(2, 50.0, 0.5)
    hc = np.array([[1.0 + 0.5j]])
    draw_a, acks_a, out_a = arq_episode(rungs, hc, 50.0, 1.0, "ml", trial_rng(7, 0))
    draw_b, acks_b, out_b = arq_episode(rungs, hc, 50.0, 1.0, "ml", trial_rng(7, 0))
    assert draw_a.message == draw_b.message and acks_a == acks_b
    assert out_a.kind == out_b.kind and np.array_equal(out_a.coords, out_b.coords)
    # Same episode stream, different method: same message is transmitted.
    draw_c, _, _ = arq_episode(rungs, hc, 50.0, 1.0, "reg_exact", trial_rng(7, 0))
    assert draw_c.message == draw_a.message


def test_arq_episode_rejects_mismatched_fragments():
    def episode(designs):
        rungs = [(d, enumerate_codebook(d, 1.0)) for d in designs]
        simulate_arq_episode(rungs, np.array([[1.0 + 0.0j]]), 10.0, 0.5,
                             trial_rng(1, 0), NoiseModel())

    episode([square_design(2, t=1), square_design(4, t=2)])
    with pytest.raises(ValueError, match="rung 2"):
        episode([square_design(2, t=1), square_design(4, t=3)])   # wrong duration
    with pytest.raises(ValueError, match="rung 2"):
        episode([square_design(2, t=1), square_design(6, t=2)])   # wrong dimension
    with pytest.raises(ValueError, match="rung 1"):
        episode([square_design(4, t=1), square_design(8, t=2)])   # not one round


#: A plain Rayleigh cell and a 3-round ARQ cell (two uses per round):
#: channel, base design, rho, r.
LADDER_CASES = {
    "rayleigh": (ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
                 square_design(4), 20.0, 1.0),
    "arq3": (ChannelConfig(model="mimo_arq", nt=1, nr=1, arq_rounds=3,
                           arq_x_thresh=1.2),
             square_design(4, t=2), 20.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(LADDER_CASES))
def test_cell_designs_give_each_rung_its_dimension_duration_and_phi(name):
    chan, design, rho, r = LADDER_CASES[name]
    rungs = chan.cell_codebooks(design, rho, r)
    if chan.model != "mimo_arq":
        assert len(rungs) == 1 and rungs[0][0] is design
        assert rungs[0][1].scale == scaling_factor(rho, r, 1, 4)
        return
    n, t = design.dimension, design.coding_duration
    assert len(rungs) == 3
    for l, (d, book) in enumerate(rungs, start=1):
        phi = book.scale
        assert (d.dimension, d.coding_duration) == (l * n, l * t)
        assert np.array_equal(d.generator, np.kron(np.eye(l), design.generator))
        assert np.array_equal(d.region.half_widths, np.tile(design.region.half_widths, l))
        assert np.array_equal(d.dither, np.tile(design.dither, l))
        # Rate r/l over l rounds: phi_l = rho^(-(r/l) (l t) / (l n)).
        assert phi == pytest.approx(rho ** (-r * t / (l * n)), rel=1e-13)


def spy_enumeration(monkeypatch):
    """Record (design, phi, codebook) of every `channels.enumerate_codebook` call."""
    built = []

    def spy(design, phi):
        book = enumerate_codebook(design, phi)
        built.append((design, phi, book))
        return book

    monkeypatch.setattr(channels, "enumerate_codebook", spy)
    return built


def _stream(trial, *sub):
    return trial_rng(1009, trial, *sub)


def _block_draw(chan, rungs, rho, trials):
    """`draw_block` of `trials` on the streams of `_stream`."""
    return chan.draw_block(rungs, rho, 1009, (), np.arange(trials))


@pytest.mark.parametrize("name", sorted(LADDER_CASES))
def test_trial_sampler_enumerates_the_cell_designs(name, monkeypatch):
    # The block draw puts every lane on one of the rungs `cell_codebooks`
    # enumerated, once each, and enumerates nothing itself.
    chan, design, rho, r = LADDER_CASES[name]
    built = spy_enumeration(monkeypatch)
    rungs = chan.cell_codebooks(design, rho, r)
    assert len(built) == len(rungs)
    for (d, phi, book), (rung_design, rung_book) in zip(built, rungs):
        assert d is rung_design and book is rung_book and book.scale == phi
    draw = _block_draw(chan, rungs, rho, 20)
    assert len(built) == len(rungs)
    stacks = [stack for stack in draw.stacks if stack is not None]
    assert draw.failure is None
    assert sorted(np.concatenate([lanes for lanes, *_ in stacks])) == list(range(20))
    for (d, book), stack in zip(rungs, draw.stacks):
        if stack is not None:
            lanes, y, h, messages = stack
            assert h.shape == (len(lanes),) + (d.dimension,) * 2
            assert y.shape == (len(lanes), d.dimension) and messages.max() < book.size


def test_arq_draw_stopping_at_round_l_decodes_on_rung_l(monkeypatch):
    chan, design, rho, r = LADDER_CASES["arq3"]
    built = spy_enumeration(monkeypatch)
    draw = _block_draw(chan, chan.cell_codebooks(design, rho, r), rho, 60)
    rung_of = {int(lane): l for l, stack in enumerate(draw.stacks, start=1)
               if stack is not None for lane in stack[0]}
    for trial in range(60):
        hc = complex_gaussian(_stream(trial), (1, 1))
        # Rounds 1 and 2 stop on ACK, round 3 always.
        acks = [arq_ack(hc, rho, chan.arq_x_thresh, l) for l in (1, 2)] + [True]
        assert rung_of[trial] == acks.index(True) + 1
    for (d, _, _), stack in zip(built, draw.stacks):
        assert stack[2].shape[1:] == (d.dimension, d.dimension)
    assert set(rung_of.values()) == {1, 2, 3}


@pytest.mark.parametrize("name", sorted(LADDER_CASES))
def test_prepare_scales_the_generator_by_the_codebook_scale(name):
    chan, design, rho, r = LADDER_CASES[name]
    draw_trial = trial_sampler(chan, chan.cell_codebooks(design, rho, r), rho, _stream)
    for trial in range(20):
        draw = draw_trial(trial)
        stage = prepare(draw.y, draw.h, draw.design, draw.codebook)
        assert stage.codebook is draw.codebook
        assert np.array_equal(stage.problem.scaled_generator,
                              draw.codebook.scale * draw.design.generator)


# The block draw against numpy's own generator: the raw Philox words of
# each lane's SeedSequence key, Lemire's integers, and every model's
# H, message and y against the per-trial reference, by tobytes().

@pytest.mark.parametrize("seed, key, sub", [
    (0, (0, 1, 2), ()), (20260822, (0, 14_000_000, 0), (1,)),
    (2**32 + 5, (1, 2**32 - 1, 7), ()), (2**64 - 1, (3,), (1,)), (2**70 + 9, (), ())])
def test_trial_streams_are_numpy_philox_words(seed, key, sub):
    trials = np.r_[0:61, 2**32 - 2, 2**32 + 1, 10**9]
    got = TrialStreams(seed, key, trials, sub).raw(13)
    for lane, trial in enumerate(trials.tolist()):
        spawn = tuple(int(k) & 0xFFFFFFFF for k in (*key, trial, *sub))
        ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=spawn)
        assert got[lane].tobytes() == np.random.Philox(ss).random_raw(13).tobytes(), trial


@pytest.mark.parametrize("size", [1, 2, 17, 2**31 + 1, 2**32 - 1])
def test_trial_streams_integers_and_random_are_the_generators(size):
    # At 2^31 + 1 about half the first draws are rejected, so the redraws
    # (the buffered high half, then the next word) run; a second call reads
    # the half the first one left.
    trials = np.arange(400)
    streams = TrialStreams(9, (1, 2), trials)
    got = (streams.integers(size), streams.random(3), streams.integers(size),
           streams.random(2))
    for trial in trials.tolist():
        rng = trial_rng(9, 1, 2, trial)
        want = (rng.integers(size), rng.random(3), rng.integers(size), rng.random(2))
        for w, g in zip(want, got):
            assert np.asarray(w).tobytes() == g[trial].tobytes(), trial
    first = TrialStreams(9, (1, 2), trials).raw(1)[:, 0] & 0xFFFFFFFF
    rejected = np.mean((first * size & 0xFFFFFFFF) < (2**32 - size) % size)
    assert 0.4 < rejected < 0.6 if size == 2**31 + 1 else rejected < 0.01


SELF_INTERFERENCE = NoiseModel(kind="self_interference", sigma_e=0.5)

#: Every model: channel, base design, rho_db, r.
DRAW_CASES = {
    "rayleigh_1x1": (ChannelConfig(model="quasi_static_rayleigh"),
                     square_design(2), 30.0, 0.0),
    "rayleigh_2x2": (ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2),
                     square_design(4), 20.0, 1.0),
    "rayleigh_2x2_self_interference": (
        ChannelConfig(model="quasi_static_rayleigh", nt=2, nr=2, noise=SELF_INTERFERENCE),
        square_design(4), 20.0, 1.0),
    "ofdm_1x1_2taps": (ChannelConfig(model="mimo_ofdm", tones=2, taps=2),
                       square_design(4, t=2), 14.0, 0.0),
    "ofdm_2x1_3taps": (ChannelConfig(model="mimo_ofdm", nt=2, nr=1, tones=3, taps=3),
                       square_design(12, t=3), 14.0, 0.0),
    "naf_relay": (ChannelConfig(model="naf_relay"), square_design(4, t=2), 16.0, 0.0),
    "fixed": (ChannelConfig(model="fixed", h_real=np.array([[1.0, 0.9], [0.2, 0.3]])),
              square_design(2), 8.0, 0.0),
    "arq_2rounds": (ChannelConfig(model="mimo_arq", nt=2, nr=2, arq_rounds=2,
                                  arq_x_thresh=2.0), square_design(4), 15.0, 1.0),
    "arq_3rounds_self_interference": (
        ChannelConfig(model="mimo_arq", arq_rounds=3, arq_x_thresh=1.0,
                      noise=SELF_INTERFERENCE), square_design(2), 20.0, 0.5),
}

#: Blocks of 1, 7, 64 and 256 trials one after another, then 7 trials
#: whose indices pass 2^32 (each key word is taken mod 2^32).
DRAW_BLOCKS = [np.arange(0, 1), np.arange(1, 8), np.arange(8, 72), np.arange(72, 328),
               np.arange(2**32 - 3, 2**32 + 4)]


@pytest.mark.parametrize("seed", [5, 2**40 + 3])
@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_block_draw_is_the_per_trial_draw_bit_for_bit(case, seed):
    chan, design, rho_db, r = DRAW_CASES[case]
    rho = 10.0 ** (rho_db / 10.0)
    rungs = chan.cell_codebooks(design, rho, r)
    key = (0, 14_000_000, 7)
    reference = trial_sampler(chan, rungs, rho,
                              lambda trial, *sub: trial_rng(seed, *key, trial, *sub))
    lanes_per_rung = np.zeros(len(rungs), dtype=int)
    for trials in DRAW_BLOCKS:
        draw = chan.draw_block(rungs, rho, seed, key, trials)
        assert draw.failure is None
        seen = []
        for rung, ((_, book), stack) in enumerate(zip(rungs, draw.stacks)):
            if stack is None:
                continue
            lanes, y, h, messages = stack
            seen += lanes.tolist()
            for lane, y_i, h_i, message in zip(lanes.tolist(), y, h, messages.tolist()):
                want = reference(int(trials[lane]))
                assert want.codebook is book and want.message == message, lane
                assert h_i.shape == want.h.shape and h_i.tobytes() == want.h.tobytes(), lane
                assert y_i.shape == want.y.shape and y_i.tobytes() == want.y.tobytes(), lane
            lanes_per_rung[rung] += len(lanes)
        assert sorted(seen) == list(range(len(trials)))
    # ARQ: lanes that ACK early and lanes that NACK to the last round.
    assert (lanes_per_rung > 0).all()


def test_a_failed_ack_ends_the_block_at_its_lane(monkeypatch):
    # Lane 5's Gram matrix is planted singular: the lanes before it are
    # drawn, and it raises as its episode's round-1 ACK does.
    chan, design, rho_db, r = DRAW_CASES["arq_2rounds"]
    rho = 10.0 ** (rho_db / 10.0)
    rungs = chan.cell_codebooks(design, rho, r)
    gram_logdet = channels._gram_logdet

    def planted(hc, rho):
        sign, logdet = gram_logdet(hc, rho)
        if np.ndim(sign):
            sign[5] = 0.0
        return sign, logdet

    monkeypatch.setattr(channels, "_gram_logdet", planted)
    whole = chan.draw_block(rungs, rho, 5, (0,), np.arange(4, 20))
    monkeypatch.undo()
    draw = chan.draw_block(rungs, rho, 5, (0,), np.arange(4, 9))
    assert whole.failure[0] == 5
    assert str(whole.failure[1]) == "mutual-information Gram matrix not positive"
    for got, want in zip(whole.stacks, draw.stacks):
        assert (got is None) == (want is None)
        if got is not None:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
