"""Monte Carlo harness for error-rate sweeps and diversity slopes.

A sweep runs a grid of (signal level, decode method) cells over a fixed
design and channel model.  Each trial draws channel, transmitted
codeword, and noise from a counter-based stream keyed by
(experiment seed, cell kind, rho, rate, trial index) - the method is
deliberately left out of the key, so every method at a given signal
level faces the identical sequence of trials.  That makes paired
comparisons (exact vs approximate decoders, outage vs error rate) exact
and keeps every record bit-reproducible no matter how trials are
scheduled.

`SweepConfig.cell_codebooks` sets up a level, for the sweep and the dry
run alike; `sweep_cell` runs a block of its trials into a `BlockTally`,
whose `records` raise the failures it lists.  Each block has one path:
the channel layer's trial sampler draws each trial from its own stream
(ARQ trials through `channels.simulate_arq_episode`) into one
`decoders.BlockStage`, which builds the block's channel stage once, on
stacked arrays, and one `decoders.decode` call per method still running
decodes the block's lanes in trial order, up to the method's last error
in the block.  The stacked detectors may decode lanes past that stopping
trial as well as draw them; the records count only the lanes before it.
`run_sweep` hands out every level's blocks from one loop, serial or
pooled, sets a level up as its first block goes out, and scans the blocks
in trial order, so that every method stops at its min_errors-th error and
a failure is raised where a serial run meets it.

The diversity slope is the least-squares slope of -log10(error rate)
against log10(rho) over the top qualifying signal levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channels import ChannelConfig, trial_rng
from .decoders import (METHOD_LR_LINEAR, METHOD_LR_SIC, METHOD_NAIVE, METHODS,
                       BlockStage, decode)
from .errors import InsufficientData, LatdecError
from .lattice import LatticeDesign, scaling_factor
from .numkernel import as_integer, as_real, cholesky_upper

__all__ = [
    "SweepConfig",
    "ErrorRateRecord",
    "SlopeEstimate",
    "OutageEstimate",
    "SweepResult",
    "wilson_interval",
    "estimate_outage_probability",
    "estimate_diversity_slope",
    "run_sweep",
    "BlockTally",
    "sweep_cell",
    "dmt_reference_breakpoints",
    "dmt_reference_value",
]

# Stream-kind tags keeping error-rate and outage trials independent.
_KIND_ERROR = 0
_KIND_OUTAGE = 1

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

#: Trials per block of a sweep, and blocks in flight per process of a
#: pooled one.  Records do not depend on either.
BLOCK_TRIALS = 256
BLOCKS_PER_WORKER = 2


@dataclass
class SweepConfig:
    """Complete description of one Monte Carlo sweep."""

    design: LatticeDesign
    channel: ChannelConfig
    methods: tuple
    rho_db: tuple
    r: float
    min_errors: int = 50
    max_trials: int = 10**6
    seed: int = 0
    gate_alpha: float | None = None
    #: LLL's delta: fixed, since the swap cap of `reduction` holds for 3/4.
    gate_delta: ClassVar[float] = 0.75

    def __post_init__(self):
        for name, cls in (("design", LatticeDesign), ("channel", ChannelConfig)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        self.methods = _as_tuple(self.methods, "methods")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
            if m in self.methods[:i]:   # would count each error twice
                raise ValueError(f"method {m!r} is listed twice")
        if not self.methods:
            raise ValueError("need at least one method")
        grid = tuple(as_real(v, "rho_db") for v in _as_tuple(self.rho_db, "rho_db"))
        if not all(math.isfinite(v) for v in grid):
            raise ValueError("rho_db values must be finite")
        if len(grid) < 2:
            raise ValueError("rho_db grid needs at least two points")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("rho_db grid must be strictly increasing")
        self.rho_db = grid
        self.r = as_real(self.r, "r")
        if not (0.0 <= self.r < math.inf):
            raise ValueError("r must be nonnegative and finite")
        self.min_errors = as_integer(self.min_errors, "min_errors", 20)
        self.max_trials = as_integer(self.max_trials, "max_trials", 1)
        self.seed = as_integer(self.seed, "seed")
        needs_gate = any(m in (METHOD_LR_SIC, METHOD_LR_LINEAR) for m in self.methods)
        if needs_gate and self.gate_alpha is None:
            raise ValueError("reduction-aided methods need gate_alpha")
        if self.gate_alpha is not None:
            self.gate_alpha = as_real(self.gate_alpha, "gate_alpha")
            if not 0.0 < self.gate_alpha < math.inf:
                raise ValueError("gate_alpha must be positive and finite")
        self.channel.check_design(self.design)
        # Each level's rho, gate threshold and lattice scale must be float64
        # numbers a trial can use, or the sweep would stop at that level.
        t, n = self.design.coding_duration, self.design.dimension
        for v in grid:
            rho = _float_or_inf(pow, 10.0, v / 10.0)
            if not 0.0 < rho < math.inf:
                raise ValueError(f"rho_db {v} leaves the float64 range")
            if self.gate_alpha is not None and (
                    _float_or_inf(pow, rho, self.gate_alpha) == math.inf):
                raise ValueError(f"gate threshold rho^alpha overflows at rho_db {v}")
            if not 0.0 < _float_or_inf(scaling_factor, rho, self.r, t, n) < math.inf:
                raise ValueError(f"lattice scale phi leaves the float64 range "
                                 f"at rho_db {v} and r {self.r}")
        outputs, inputs = self.channel.real_dims(self.design.coding_duration)
        if METHOD_NAIVE in self.methods and outputs < inputs:
            raise ValueError(f"naive decoding needs at least as many channel outputs "
                             f"as inputs, the channel gives {outputs} for {inputs}")

    def cell_codebooks(self, rho_db: float) -> list:
        """Level `rho_db`'s set-up, its [(design, codebook)] rungs, or what enumeration raises."""
        return self.channel.cell_codebooks(self.design, 10.0 ** (rho_db / 10.0), self.r)


@dataclass
class ErrorRateRecord:
    """One (rho, method) cell of a sweep."""

    rho_db: float
    rho_linear: float
    r: float
    method: str
    trials: int
    errors: int
    oob: int        # decoded lattice point fell outside the codebook
    timeouts: int   # reduction gate refused the channel
    p_hat: float
    ci_lo: float
    ci_hi: float

    def __post_init__(self):
        if not (0 < self.trials):
            raise ValueError("trials must be positive")
        if not (0 <= self.errors <= self.trials):
            raise ValueError("errors out of range")
        if self.oob + self.timeouts > self.errors:
            raise ValueError("oob + timeouts cannot exceed errors")
        if not (self.ci_lo <= self.p_hat <= self.ci_hi):
            raise ValueError("confidence interval must contain p_hat")


@dataclass
class SlopeEstimate:
    """Least-squares diversity slope over the top qualifying cells."""

    d_hat: float
    stderr: float
    n_points: int
    rho_db_used: tuple


@dataclass
class OutageEstimate:
    rho_linear: float
    rate_bits: float
    trials: int
    count: int
    p_hat: float
    ci_lo: float
    ci_hi: float


@dataclass
class SweepResult:
    records: list
    slopes: dict  # method -> SlopeEstimate | None


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 95% for a binomial proportion."""
    if trials < 1 or errors < 0 or errors > trials:
        raise ValueError("bad counts")
    p = errors / trials
    zz = _Z95 * _Z95
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    # At the extremes the score interval's endpoint equals p exactly;
    # roundoff must not push the bound past the estimate.
    if errors == 0:
        lo = 0.0
    if errors == trials:
        hi = 1.0
    return lo, hi


def _as_tuple(items, name: str) -> tuple:
    """An iterable as a tuple; a string is refused, not read as its characters."""
    if isinstance(items, (str, bytes)) or not np.iterable(items):
        raise ValueError(f"{name} must be a list, got {items!r}")
    return tuple(items)


def _float_or_inf(fn, *args) -> float:
    """fn(*args), or inf where float64 arithmetic overflows."""
    try:
        return float(fn(*args))
    except OverflowError:
        return math.inf


def _key_from_float(x: float) -> int:
    return int(round(float(x) * 1_000_000)) & 0xFFFFFFFF


@dataclass
class BlockTally:
    """What one block of trials [start, stop) at one signal level saw.

    `trials[method]` counts the trials the method ran from `start` (always
    a prefix of the block) and `errors[method]` lists the (trial, outcome
    kind) of each of its errors.  `failures` lists each `LatdecError` the
    block caught as (trial, method, error), in serial order; method None
    marks a failure of the trial draw, which ends the block, or, in a
    scan's whole-cell tally, a failed set-up of the level (trial 0)."""

    rho_db: float
    r: float
    start: int
    stop: int
    trials: dict
    errors: dict
    failures: list

    @classmethod
    def empty(cls, config: SweepConfig, rho_db: float, start: int,
              stop: int) -> "BlockTally":
        return cls(rho_db=float(rho_db), r=float(config.r), start=start, stop=stop,
                   trials=dict.fromkeys(config.methods, 0),
                   errors={m: [] for m in config.methods}, failures=[])

    def records(self) -> list:
        """One `ErrorRateRecord` per method that ran a trial.  Raises the
        first listed failure, the one a serial run reaches first."""
        if self.failures:
            raise self.failures[0][2]
        rho = 10.0 ** (self.rho_db / 10.0)
        records = []
        for method, trials in self.trials.items():
            if not trials:
                continue
            kinds = [kind for _, kind in self.errors[method]]
            errors = len(kinds)
            lo, hi = wilson_interval(errors, trials)
            records.append(ErrorRateRecord(
                rho_db=self.rho_db, rho_linear=rho, r=self.r, method=method,
                trials=trials, errors=errors, oob=kinds.count("out_of_codebook"),
                timeouts=kinds.count("timeout"), p_hat=errors / trials,
                ci_lo=lo, ci_hi=hi))
        return records


def sweep_cell(config: SweepConfig, rungs: list, rho_db: float, start: int,
               stop: int, budgets: dict) -> BlockTally:
    """Trials [start, stop) of one signal level on its `rungs` from
    `SweepConfig.cell_codebooks`, BLOCK_TRIALS at a time (a sweep's block
    is one such run).  Each trial of a run is drawn from its own stream
    into one `BlockStage`, whose channel stage, built once for the run, is
    shared by every method still running; each method then decodes the
    run in one `decode` call, in trial order, and stops once its errors in
    this block reach its entry in `budgets`; a method with budget 0 does
    not run.  The stage forms the GDFE only if a method that reads it runs,
    and the gated LLL only if a reduction-aided one does.  A run is drawn
    whole before it is decoded, so its trials past the last method's
    stopping trial are drawn and staged for nothing, and the stacked
    detectors (the ML scan, `lr_sic`, `lr_linear`) decode a method's
    trials past its stopping trial too; the tally counts none of them.

    A `LatdecError` is not raised but listed in the tally, in serial
    order (by trial, then by method), for `BlockTally.records` to raise: a
    method that fails stops, and a failed trial draw ends the block after
    the trials before it."""
    tally = BlockTally.empty(config, rho_db, start, stop)
    active = [m for m in config.methods if budgets[m] > 0]
    rho = 10.0 ** (float(rho_db) / 10.0)
    rho_key, r_key = _key_from_float(rho_db), _key_from_float(config.r)

    def stream(trial: int, *sub: int):
        return trial_rng(config.seed, _KIND_ERROR, rho_key, r_key, trial, *sub)

    draw_trial = config.channel.trial_sampler(rungs, rho, stream)
    failed_draw = None
    for first in range(start, stop, BLOCK_TRIALS):
        if not active or failed_draw is not None:
            break
        stage = BlockStage(rungs, min(BLOCK_TRIALS, stop - first), rho=rho,
                           gate_alpha=config.gate_alpha)
        try:
            for trial in range(first, first + stage.size):
                draw = draw_trial(trial)
                stage.add(draw.y, draw.h, draw.codebook, draw.message)
        except LatdecError as exc:
            failed_draw = (trial, None, exc)
        stage.build(active)
        failures = []
        for method in tuple(active):
            errors = tally.errors[method]
            outcome = decode(stage, method=method, budget=budgets[method] - len(errors))
            tally.trials[method] += outcome.decoded
            errors += [(first + lane, kind) for lane, kind in outcome.errors]
            if outcome.failure is not None:
                lane, exc = outcome.failure
                failures.append((first + lane, method, exc))
            if outcome.failure is not None or len(errors) >= budgets[method]:
                active.remove(method)
        # Serial order: by trial, then (the sort is stable) by method.
        tally.failures += sorted(failures, key=lambda failure: failure[0])
    if failed_draw is not None and active:
        tally.failures.append(failed_draw)
    return tally


def estimate_outage_probability(rho: float, rate_bits: float, t: int,
                                channel: ChannelConfig, trials: int,
                                seed: int = 0) -> OutageEstimate:
    """Frequency of the mutual-information outage event
    log2 det(I + H H^T) < 2 * rate_bits * t over channel draws."""
    if trials < 1000:
        raise ValueError("use at least 1000 trials for outage estimates")
    if rate_bits < 0.0:
        raise ValueError("rate must be nonnegative")
    rho_key = _key_from_float(10.0 * math.log10(rho))
    count = 0
    threshold = 2.0 * rate_bits * t
    for trial in range(trials):
        rng = trial_rng(seed, _KIND_OUTAGE, rho_key, 0, trial)
        h = channel.sample(t, rho, rng)
        gram = np.eye(h.shape[0]) + h @ h.T
        u = cholesky_upper(0.5 * (gram + gram.T))
        log2det = 2.0 * float(np.sum(np.log2(np.diag(u))))
        if log2det < threshold:
            count += 1
    lo, hi = wilson_interval(count, trials)
    return OutageEstimate(rho_linear=float(rho), rate_bits=float(rate_bits),
                          trials=trials, count=count, p_hat=count / trials,
                          ci_lo=lo, ci_hi=hi)


def estimate_diversity_slope(records, min_errors: int = 50,
                             top_points: int = 3) -> SlopeEstimate:
    """Fit -log10(p_hat) against log10(rho) by least squares over the
    highest qualifying signal levels (errors >= min_errors, p_hat < 0.5).

    Raises InsufficientData with fewer than two qualifying cells."""
    qual = [rec for rec in records
            if rec.errors >= min_errors and rec.p_hat < 0.5]
    if len(qual) < 2:
        raise InsufficientData(
            f"need >= 2 qualifying cells, have {len(qual)}")
    qual.sort(key=lambda rec: rec.rho_linear)
    use = qual[-top_points:]
    x = np.array([math.log10(rec.rho_linear) for rec in use])
    y = np.array([-math.log10(rec.p_hat) for rec in use])
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx <= 0.0:
        raise InsufficientData("qualifying cells share one signal level")
    slope = float(np.sum((x - xbar) * (y - ybar))) / sxx
    resid = y - (ybar + slope * (x - xbar))
    dof = len(use) - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return SlopeEstimate(d_hat=slope, stderr=stderr, n_points=len(use),
                         rho_db_used=tuple(rec.rho_db for rec in use))


class _CellScan:
    """One signal level: its `rungs` (set up by the first `next_block`,
    dropped when the cell closes), the blocks handed out so far, and the
    blocks scanned in trial order into one whole-cell tally, each method cut
    at its min_errors-th error, listing the first failure met."""

    def __init__(self, config: SweepConfig, rho_db: float):
        self.config = config
        self.tally = BlockTally.empty(config, rho_db, 0, 0)
        self.submitted = 0      # trials [0, submitted) are in blocks;
                                # the tally holds [0, tally.stop)
        self.waiting = {}       # block start -> BlockTally not yet scanned
        self.rungs = None
        self.closed = False

    def close(self) -> None:
        self.rungs, self.closed = None, True

    def running(self, method: str) -> bool:
        return len(self.tally.errors[method]) < self.config.min_errors

    def wants_block(self) -> bool:
        return not self.closed and self.submitted < self.config.max_trials

    def next_block(self) -> tuple | None:
        """`sweep_cell`'s (rungs, rho_db, start, stop, budgets) for the next
        block: each budget is the errors a method still needs after the
        scanned trials, an upper bound on what it needs after `start`.  The
        first call sets the level up; None if that fails (trial 0's failure)."""
        if self.rungs is None:
            try:
                self.rungs = self.config.cell_codebooks(self.tally.rho_db)
            except LatdecError as exc:
                self.tally.failures.append((0, None, exc))
                self.close()
                return None
        start = self.submitted
        self.submitted = min(start + BLOCK_TRIALS, self.config.max_trials)
        budgets = {m: self.config.min_errors - len(self.tally.errors[m])
                   for m in self.config.methods}
        return self.rungs, self.tally.rho_db, start, self.submitted, budgets

    def receive(self, block: BlockTally) -> None:
        """Scan every block that now joins the scanned prefix; close the
        cell once no method runs past it, or at the first failure the
        serial run reaches.  A closed cell scans no block: its late blocks
        lie past its stopping trial or above a failed level."""
        self.waiting[block.start] = block
        while not self.closed and self.tally.stop in self.waiting:
            block = self.waiting.pop(self.tally.stop)
            for method in self.config.methods:
                if not self.running(method):
                    continue
                errors = self.tally.errors[method]
                errors += block.errors[method][:self.config.min_errors - len(errors)]
                self.tally.trials[method] = (
                    errors[-1][0] + 1 if not self.running(method)
                    else block.start + block.trials[method])
            # Each failure ends its method's run in the block (a draw
            # failure every method's): the serial run reaches it iff that
            # method, or for a draw any method, still runs.
            reached = [f for f in block.failures if any(map(
                self.running, self.config.methods if f[1] is None else (f[1],)))]
            self.tally.failures += reached[:1]
            self.tally.stop = block.stop
            if (self.tally.failures or block.stop == self.config.max_trials
                    or not any(map(self.running, self.config.methods))):
                self.close()


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Run every (rho, method) cell and fit one slope per method.

    One loop hands out every block of BLOCK_TRIALS trials, to the lowest
    open level with the fewest blocks in flight, and sets a level up as its
    first block goes out; a level's blocks are scanned in trial order, each
    method cut at its min_errors-th error or at max_trials.  With `workers`
    = 1 the loop calls `sweep_cell` on each block as it goes out, so no
    block is in flight and one level's codebooks are held at a time; else a
    pool of at most one process per level runs up to BLOCKS_PER_WORKER
    blocks per process.  As the serial run stops at the lowest failed
    level, that level closes every level above it.  Records and the failure
    raised match: a trial is keyed by (seed, rho, r, trial) alone.  Raises
    ValueError when `workers` < 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = [_CellScan(config, rho_db) for rho_db in config.rho_db]
    processes, pool = min(workers, len(cells)), None
    if workers > 1:
        # Imported here: neither `import latdec` nor a serial run loads
        # concurrent.futures or multiprocessing.
        from concurrent import futures
        pool = futures.ProcessPoolExecutor(processes)
    in_flight = {}  # future -> _CellScan; always empty in a serial run
    try:
        while True:
            failed = min((i for i, c in enumerate(cells) if c.tally.failures),
                         default=len(cells))
            for cell in cells[failed + 1:]:
                cell.close()
            for future, cell in list(in_flight.items()):
                if cell.closed and future.cancel():
                    del in_flight[future]
            open_cells = [cell for cell in cells if cell.wants_block()]
            if open_cells and len(in_flight) < BLOCKS_PER_WORKER * processes:
                cell = min(open_cells,
                           key=lambda c: sum(v is c for v in in_flight.values()))
                block = cell.next_block()
                if block is None:   # the level's set-up failed
                    continue
                # Blocks run through the module-level name, so a rebinding
                # of `sweep_cell` runs in the workers too.
                if pool is None:
                    cell.receive(sweep_cell(config, *block))
                else:
                    in_flight[pool.submit(sweep_cell, config, *block)] = cell
                del block   # it would hold these rungs through the next set-up
            elif in_flight:
                done, _ = futures.wait(in_flight, return_when=futures.FIRST_COMPLETED)
                for future in done:
                    in_flight.pop(future).receive(future.result())
            else:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    records = [rec for cell in cells for rec in cell.tally.records()]
    slopes = {}
    for method in config.methods:
        recs = [rec for rec in records if rec.method == method]
        try:
            slopes[method] = estimate_diversity_slope(
                recs, min_errors=config.min_errors)
        except InsufficientData:
            slopes[method] = None
    return SweepResult(records=records, slopes=slopes)


def dmt_reference_breakpoints(nt: int, nr: int, taps: int | None = None):
    """Corner points (k, d) of the reference diversity-multiplexing curve:
    ((taps*nmax - k)(nmin - k)) for the ISI variant with `taps` taps, and
    flat fading, ((nr-k)(nt-k)), is its one-tap case."""
    if nt < 1 or nr < 1:
        raise ValueError("nt and nr must be >= 1")
    if taps is not None and taps < 1:
        raise ValueError("taps must be >= 1")
    nmin, nmax = min(nt, nr), (1 if taps is None else taps) * max(nt, nr)
    return [(k, float((nmax - k) * (nmin - k))) for k in range(nmin + 1)]


def dmt_reference_value(r: float, nt: int, nr: int,
                        taps: int | None = None) -> float:
    """Piecewise-linear reference curve evaluated at multiplexing rate r."""
    xs, ys = np.array(dmt_reference_breakpoints(nt, nr, taps), dtype=np.float64).T
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    return float(np.interp(r, xs, ys))   # 0 from the last breakpoint, nmin, on
