"""Output checks of the benchmark.

An operation is one (signal level, method) record of one sweep round.
Every check returns `Failure` entries naming the operations it fails; an
operation fails if any check names it.  The checks are computed apart
from latdec: from closed forms, from brute force in numpy, or from
properties each method must have.  None compares against stored output.

The checks that run latdec functions on benchmark-generated inputs take
those functions from a `fns` mapping, so the benchmark's tests can swap in
a corrupted function and see the matching check fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import latdec

#: Two-sided 95% normal quantile of the Wilson interval.
Z95 = 1.959963984540054

#: Generated inputs per (signal level, method) cell.
CASES_PER_CELL = 3

#: Largest distance of a fitted pilot slope from the reference curve.
SLOPE_TOLERANCE = 0.25

#: Pooled standard errors by which ML may exceed another method's rate.
DOMINANCE_SIGMAS = 3.0

_BOUND_BASE = 2.0 / math.sqrt(3.0)

LATDEC_FNS = {
    "enumerate_codebook": latdec.enumerate_codebook,
    "ml_decode": latdec.ml_decode,
    "gated_reduce": latdec.gated_reduce,
    "sphere_decode_regularized": latdec.sphere_decode_regularized,
    "babai_nearest_plane": latdec.babai_nearest_plane,
    "lr_aided_linear": latdec.lr_aided_linear,
}


@dataclass(frozen=True)
class Failure:
    check: str
    rho_db: float | None    # None: every signal level
    method: str | None      # None: every method
    round: int | None       # None: every round
    detail: str

    def hits(self, round_index: int, record: dict) -> bool:
        return ((self.round is None or self.round == round_index)
                and (self.rho_db is None or self.rho_db == record["rho_db"])
                and (self.method is None or self.method == record["method"]))


def count_failed(rounds: list, failures: list) -> int:
    """Operations (records of all rounds) named by at least one failure."""
    return sum(1 for i, records in enumerate(rounds) for rec in records
               if any(f.hits(i, rec) for f in failures))


# ---------------------------------------------------------------- records

def wilson(errors: int, trials: int) -> tuple:
    """Wilson score interval at Z95, clamped to [0, 1], with the endpoint
    at an extreme count equal to the estimate itself."""
    p = errors / trials
    zz = Z95 * Z95
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials
                           + zz / (4.0 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def check_records(rounds: list, fixed_trials: int | None,
                  min_errors: int, max_trials: int) -> list:
    """Wilson intervals and p_hat from the formula; trial counts equal the
    fixed count, or stop exactly at min_errors (or at max_trials)."""
    out = []
    for i, records in enumerate(rounds):
        for rec in records:
            where = (rec["rho_db"], rec["method"], i)
            lo, hi = wilson(rec["errors"], rec["trials"])
            if (rec["p_hat"] != rec["errors"] / rec["trials"]
                    or abs(rec["ci_lo"] - lo) > 1e-12
                    or abs(rec["ci_hi"] - hi) > 1e-12):
                out.append(Failure("wilson", *where,
                                   f"interval {rec['ci_lo']}, {rec['ci_hi']} "
                                   f"!= formula {lo}, {hi}"))
            if fixed_trials is not None:
                ok = rec["trials"] == fixed_trials
            else:
                ok = ((rec["errors"] == min_errors and rec["trials"] <= max_trials)
                      or (rec["trials"] == max_trials
                          and rec["errors"] < min_errors))
            if not ok:
                out.append(Failure("trial_count", *where,
                                   f"{rec['trials']} trials, {rec['errors']} errors"))
    return out


def check_ml_dominance(rounds: list) -> list:
    """ML's error rate is at most each other method's plus
    DOMINANCE_SIGMAS pooled standard errors, at every signal level."""
    out = []
    for i, records in enumerate(rounds):
        by_level = {}
        for rec in records:
            by_level.setdefault(rec["rho_db"], {})[rec["method"]] = rec
        for rho_db, cell in by_level.items():
            ml = cell.get("ml")
            if ml is None:
                continue
            for method, rec in cell.items():
                n1, n2 = ml["trials"], rec["trials"]
                pooled = (ml["errors"] + rec["errors"]) / (n1 + n2)
                se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
                if ml["errors"] / n1 > rec["errors"] / n2 + DOMINANCE_SIGMAS * se:
                    out.append(Failure("ml_dominance", rho_db, "ml", i,
                                       f"ml {ml['errors']}/{n1} above {method} "
                                       f"{rec['errors']}/{n2} + 3 se"))
    return out


def check_repeats(rounds: list) -> list:
    """Every round's records equal the first round's."""
    out = []
    for i, records in enumerate(rounds[1:], start=1):
        if len(records) != len(rounds[0]):
            out.append(Failure("repeat", None, None, i, "record count differs"))
            continue
        for rec, first in zip(records, rounds[0]):
            if rec != first:
                out.append(Failure("repeat", rec["rho_db"], rec["method"], i,
                                   "record differs from round 0"))
    return out


def check_csv_equal(cli_csv: str, inproc_csv: str, round_index: int) -> list:
    """The CLI's results.csv equals the in-process one, byte for byte."""
    cli_rows = cli_csv.split("\n")
    ref_rows = inproc_csv.split("\n")
    if len(cli_rows) != len(ref_rows) or cli_rows[0] != ref_rows[0]:
        return [Failure("cli_csv", None, None, round_index,
                        "header or row count differs")]
    out = []
    for cli_row, ref_row in zip(cli_rows[1:], ref_rows[1:]):
        if cli_row != ref_row:
            fields = ref_row.split(",")
            out.append(Failure("cli_csv", float(fields[0]), fields[3],
                               round_index, f"{cli_row!r} != {ref_row!r}"))
    return out


def parse_results_csv(text: str) -> list:
    """Records of a results.csv, typed like `latdec.cli.record_to_dict`."""
    lines = text.strip("\n").split("\n")
    keys = lines[0].split(",")
    ints = {"trials", "errors", "oob", "timeouts"}
    records = []
    for line in lines[1:]:
        rec = {}
        for key, value in zip(keys, line.split(",")):
            rec[key] = (value if key == "method"
                        else int(value) if key in ints else float(value))
        records.append(rec)
    return records


def check_slopes(slopes: dict, nt: int, nr: int, round_index: int) -> list:
    """Each method's fitted slope lies within SLOPE_TOLERANCE of the
    reference diversity (n_r - k)(n_t - k) at multiplexing gain k = 0."""
    reference = float(nr * nt)
    out = []
    for method, est in slopes.items():
        if est is None or abs(est["d_hat"] - reference) > SLOPE_TOLERANCE:
            out.append(Failure("slope", None, method, round_index,
                               f"slope {est and est['d_hat']} vs {reference}"))
    return out


# ------------------------------------------------------ generated inputs

def scale(rho: float, r: float, t: int, n: int) -> float:
    """Lattice scale phi = rho^(-r t / n)."""
    return rho ** (-r * t / n)


def box_codebook(design, phi: float) -> tuple:
    """Codebook of a diagonal generator and a box region, axis by axis:
    (points, coords), lexicographically ordered by point."""
    g = design.generator
    diag = np.diag(g)
    if (design.region.kind != "box" or np.count_nonzero(g - np.diag(diag))
            or np.any(diag <= 0.0)):
        raise ValueError("workload designs have positive diagonal generators "
                         "and box regions")
    u = design.dither_or_zero()
    axes = []
    for step, hw, ui in zip(phi * diag, design.region.half_widths, u):
        lo = math.ceil((-hw - ui) / step - 1e-12)
        hi = math.floor((hw - ui) / step + 1e-12)
        axes.append(np.arange(lo, hi + 1))
    grids = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([grid.ravel() for grid in grids], axis=1).astype(np.int64)
    points = coords * (phi * diag) + u
    order = np.lexsort(points.T[::-1])
    return points[order], coords[order]


def arq_fragment(design, rounds: int):
    """Design decoded after `rounds` ARQ rounds: the base design tiled."""
    return latdec.LatticeDesign(
        generator=np.kron(np.eye(rounds), design.generator),
        region=latdec.ShapingRegion.box(np.tile(design.region.half_widths, rounds)),
        coding_duration=rounds * design.coding_duration,
        dither=None if design.dither is None else np.tile(design.dither, rounds))


def shapes(config, rho: float) -> list:
    """(design, phi, rounds) of every lattice a cell of `config` decodes on."""
    design = config.design
    t, n = design.coding_duration, design.dimension
    if config.channel.model != "mimo_arq":
        return [(design, scale(rho, config.r, t, n), 1)]
    return [(arq_fragment(design, l), scale(rho, config.r / l, l * t, l * n), l)
            for l in range(1, config.channel.arq_rounds + 1)]


def check_codebooks(config, fns: dict = LATDEC_FNS) -> list:
    """Each cell's codebook size equals the axis-by-axis integer count."""
    out = []
    for rho_db in config.rho_db:
        rho = 10.0 ** (rho_db / 10.0)
        for design, phi, l in shapes(config, rho):
            want = len(box_codebook(design, phi)[1])
            got = fns["enumerate_codebook"](design, phi).size
            if got != want:
                out.append(Failure("codebook_size", rho_db, None, None,
                                   f"{l}-round codebook has {got} points, "
                                   f"axis count {want}"))
    return out


@dataclass
class Case:
    """One benchmark-generated decode input of a workload's shape."""

    rho: float
    design: object
    phi: float
    h: np.ndarray
    y: np.ndarray
    points: np.ndarray
    coords: np.ndarray


def make_cases(config, rho_db: float, rng: np.random.Generator) -> list:
    """Channel, codeword and noise drawn by the benchmark, in the shape of
    the cell: nr x nt Rayleigh embedded over the coding duration (and
    repeated over the rounds of an ARQ fragment)."""
    rho = 10.0 ** (rho_db / 10.0)
    nt, nr = config.channel.nt, config.channel.nr
    cases = []
    frags = shapes(config, rho)
    for k in range(CASES_PER_CELL):
        design, phi, rounds = frags[k % len(frags)]
        hc = (rng.standard_normal((nr, nt))
              + 1j * rng.standard_normal((nr, nt))) / math.sqrt(2.0)
        block = np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])
        uses = rounds * config.design.coding_duration
        h = math.sqrt(rho) * np.kron(np.eye(uses), block)
        points, coords = box_codebook(design, phi)
        x = points[rng.integers(len(points))]
        y = h @ x + rng.standard_normal(h.shape[0])
        cases.append(Case(rho, design, phi, h, y, points, coords))
    return cases


def _ml_failures(case: Case, fns: dict) -> list:
    resid = case.y[None, :] - case.points @ case.h.T
    dist = np.sum(resid * resid, axis=1)
    want = case.coords[np.flatnonzero(dist <= dist.min() + 1e-12)[0]]
    book = latdec.Codebook(points=case.points, coords=case.coords, scale=case.phi)
    got = fns["ml_decode"](case.y, case.h, book)
    if got.coords is None or not np.array_equal(got.coords, want):
        return [f"ml_decode gave {got.coords}, brute-force argmin {want}"]
    return []


def integer_det(z) -> int:
    """Exact determinant of an integer matrix by Gaussian elimination over
    the rationals."""
    a = [[Fraction(int(v)) for v in row] for row in z]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return int(det)


def swap_cap(kappa: float, n: int) -> int:
    """Closed-form LLL swap cap ceil(n^2 log_{2/sqrt 3} kappa + n)."""
    return math.ceil(n * n * math.log(kappa) / math.log(_BOUND_BASE) + n)


def _search_basis(case: Case) -> np.ndarray:
    """B (phi G) with B^T B = H^T H + I, the basis the decoders reduce."""
    n = case.h.shape[1]
    b = np.linalg.cholesky(case.h.T @ case.h + np.eye(n)).T
    return b @ (case.phi * case.design.generator)


def _reduction_failures(case: Case, config, fns: dict) -> list:
    basis = _search_basis(case)
    n = basis.shape[1]
    threshold = case.rho ** config.gate_alpha
    kappa = float(np.linalg.cond(basis, 2))
    res = fns["gated_reduce"](basis, case.rho, config.gate_alpha,
                              delta=config.gate_delta)
    if res.timed_out:
        if kappa <= threshold * (1.0 - 1e-9):
            return [f"gate refused kappa {kappa:.4g} under threshold {threshold:.4g}"]
        return []
    red = res.basis
    z = np.array([[int(v) for v in row] for row in red.unimodular], dtype=object)
    out = []
    if abs(integer_det(z)) != 1:
        out.append("transform is not unimodular")
    recon = basis @ z.astype(np.float64)
    if np.max(np.abs(recon - red.reduced)) > 1e-8 * (1.0 + np.max(np.abs(basis))):
        out.append("reduced basis != basis @ Z")
    r = np.linalg.qr(red.reduced)[1]
    d = np.abs(np.diag(r))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(r[i, j]) > (0.5 + 1e-9) * d[i]:
                out.append(f"size reduction fails at ({i}, {j})")
    for k in range(1, n):
        if (config.gate_delta * d[k - 1] ** 2
                > d[k] ** 2 + r[k - 1, k] ** 2 + 1e-9 * d[k - 1] ** 2):
            out.append(f"Lovasz condition fails at {k}")
    if red.iterations > swap_cap(kappa, n):
        out.append(f"{red.iterations} swaps above cap {swap_cap(kappa, n)}")
    return out


def regularized_minimum(case: Case, radius_sq: float) -> float:
    """Smallest xi(x) = ||y - H x||^2 + ||x - u||^2 over the dithered scaled
    lattice, by exhaustive enumeration of every lattice point with xi at
    most radius_sq, or at most that of the nearest-plane point, whichever
    is smaller (Fincke-Pohst on numpy's QR of [H; I] phi G)."""
    n = case.h.shape[1]
    u = case.design.dither_or_zero()
    a = case.phi * case.design.generator
    m = np.vstack([case.h, np.eye(n)]) @ a
    target = np.concatenate([case.y - case.h @ u, np.zeros(n)])
    q, r = np.linalg.qr(m)
    c = q.T @ target
    const = max(0.0, float(target @ target) - float(c @ c))
    z = np.zeros(n)
    for level in range(n - 1, -1, -1):
        z[level] = round((c[level] - r[level, level + 1:] @ z[level + 1:])
                         / r[level, level])
    resid = c - r @ z
    radius_sq = min(radius_sq, (float(resid @ resid) + const) * (1.0 + 1e-9))
    best = math.inf

    def descend(level: int, partial: float) -> None:
        nonlocal best
        center = (c[level] - r[level, level + 1:] @ z[level + 1:]) / r[level, level]
        width = math.sqrt(max(radius_sq - const - partial, 0.0)) / abs(r[level, level])
        for v in range(math.ceil(center - width), math.floor(center + width) + 1):
            z[level] = v
            diff = c[level] - r[level, level:] @ z[level:]
            cost = partial + diff * diff
            if cost + const > radius_sq:
                continue
            if level == 0:
                best = min(best, cost + const)
            else:
                descend(level - 1, cost)

    descend(n - 1, 0.0)
    return best


def _xi(case: Case, point: np.ndarray) -> float:
    resid = case.y - case.h @ point
    lat = point - case.design.dither_or_zero()
    return float(resid @ resid) + float(lat @ lat)


def _search_failures(case: Case, method: str, config, fns: dict) -> list:
    n = case.h.shape[1]
    problem = latdec.RegularizedProblem(
        y=case.y, h=case.h, t_reg=np.eye(n),
        scaled_generator=case.phi * case.design.generator,
        dither=case.design.dither)
    if method == "reg_exact":
        res, ceiling = fns["sphere_decode_regularized"](problem), 1.0
    else:
        gate = fns["gated_reduce"](problem.prepared().basis, case.rho,
                                   config.gate_alpha, delta=config.gate_delta)
        if gate.timed_out:
            return []
        if method == "lr_sic":
            res, ceiling = fns["babai_nearest_plane"](problem, gate.basis), 2.0 ** (n / 2)
        else:
            res = fns["lr_aided_linear"](problem, gate.basis)
            ceiling = 1.0 + 2.0 * n * 4.5 ** (n / 2)
    u = case.design.dither_or_zero()
    lattice_point = case.phi * case.design.generator @ res.coords + u
    if np.max(np.abs(lattice_point - res.point)) > 1e-9 * (1.0 + np.max(np.abs(res.point))):
        return [f"{method} point is not phi G z + u for its coords"]
    xi = _xi(case, res.point)
    best = regularized_minimum(case, xi * (1.0 + 1e-9) + 1e-12)
    if not xi <= ceiling * best * (1.0 + 1e-9) + 1e-12:
        return [f"{method} metric {xi:.6g} above {ceiling:.4g} x minimum {best:.6g}"]
    return []


def check_generated(config, rng: np.random.Generator,
                    fns: dict = LATDEC_FNS) -> list:
    """Every method of every cell on CASES_PER_CELL benchmark-generated
    inputs: ML against brute force; reduced bases unimodular, LLL-reduced
    and under the swap cap; reg_exact at the regularized minimum; lr_sic and
    lr_linear within their approximation ceilings of it."""
    out = []
    for rho_db in config.rho_db:
        for method in config.methods:
            for case in make_cases(config, rho_db, rng):
                details = []
                if method == "ml":
                    details += _ml_failures(case, fns)
                if method in ("lr_sic", "lr_linear"):
                    details += _reduction_failures(case, config, fns)
                if method in ("reg_exact", "lr_sic", "lr_linear"):
                    details += _search_failures(case, method, config, fns)
                out += [Failure("generated", rho_db, method, None, d)
                        for d in details]
    return out
