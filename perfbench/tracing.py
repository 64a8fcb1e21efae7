"""Traced run: per-layer numbers from spans around latdec's public functions.

`Tracer.install` rebinds each traced function in every latdec module
namespace that holds it (for example `dmtsim.decode` and
`decoders.cholesky_upper`), from outside the package.  A span is
(name, start, end, parent index, note); spans stay in memory.  CLI worker
processes are forked from the tracing process and inherit the rebinding;
each appends its spans to its own file in the spool directory when a
`sweep_cell` span closes.  The tracing process writes its own spans when
the traced sweep ends, then reads every file.

Timed runs never install the tracer.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import latdec
from latdec import channels, cli, decoders, dmtsim, experiment, lattice
from latdec import numkernel, reduction, validation

from checks import swap_cap

_MODULES = (latdec, numkernel, lattice, reduction, decoders, channels,
            dmtsim, experiment, validation, cli)

#: (layer, module that defines the function, function names).
TRACED = (
    ("experiment", experiment, ("load_experiment",)),
    ("lattice", lattice, ("enumerate_codebook",)),
    ("channels", channels, ("trial_rng", "complex_gaussian", "embed_complex",
                            "sample_quasi_static_rayleigh", "sample_mimo_ofdm",
                            "sample_naf_relay", "fixed_channel", "sample_noise",
                            "arq_ack", "simulate_arq_episode")),
    ("numkernel", numkernel, ("cholesky_upper", "qr_decompose",
                              "condition_number_2norm", "solve_upper_triangular",
                              "solve_lower_triangular")),
    ("decoders", decoders, ("mmse_gdfe_filters", "ml_decode",
                            "sphere_decode_regularized", "babai_nearest_plane",
                            "lr_aided_linear", "decode")),
    ("reduction", reduction, ("gated_reduce", "lll_reduce")),
    ("dmtsim", dmtsim, ("sweep_cell", "run_sweep")),
    ("cli", cli, ("write_results_csv", "write_results_json", "write_slopes_json")),
)

#: Spans counted as "sampler + embedding" (only the outermost of a nest).
_SAMPLE = {f"channels.{n}" for n in ("complex_gaussian", "embed_complex",
                                     "sample_quasi_static_rayleigh",
                                     "sample_mimo_ofdm", "sample_naf_relay",
                                     "fixed_channel")}


def _note(name: str, args: tuple, kwargs: dict, result):
    """Per-call detail kept with the span."""
    if name == "lattice.enumerate_codebook":
        return result.size
    if name == "channels.arq_ack":
        return bool(result)
    if name == "reduction.gated_reduce":
        n = (args[0] if args else kwargs["m"]).shape[1]
        return {"refused": result.timed_out, "n": n,
                "threshold": result.threshold,
                "swaps": None if result.timed_out else result.basis.iterations}
    return None


class Tracer:
    """Records spans of the rebound functions in this process."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.forked = False
        self.spans = []
        self.stack = []
        self._saved = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                # First call in a forked worker: start an empty trace.
                tracer.pid, tracer.forked = os.getpid(), True
                tracer.spans, tracer.stack = [], []
            label = name
            if name == "decoders.decode":
                label = f"{name}.{args[4] if len(args) > 4 else kwargs['method']}"
            span = [label, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            span[4] = _note(name, args, kwargs, result)
            if tracer.forked and not tracer.stack:
                tracer.flush()
            return result

        return traced

    def flush(self) -> None:
        """Append this process's spans to its spool file and drop them."""
        with open(self.spool / f"spans-{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def install(self) -> None:
        for layer, home, names in TRACED:
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in _MODULES:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def batches(self) -> list:
        """Flushed span lists of every process, each with parent indices
        local to it."""
        out = []
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                out += [json.loads(line) for line in fh]
        return out


class _Stats:
    """Calls, total and self seconds, and notes of each span name."""

    def __init__(self, batches: list):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.notes = defaultdict(list)
        self.durations = defaultdict(list)
        self.sample_calls = 0
        self.sample_s = 0.0
        for spans in batches:
            child_s = [0.0] * len(spans)
            for name, t0, t1, parent, _ in spans:
                if parent >= 0:
                    child_s[parent] += t1 - t0
            for i, (name, t0, t1, parent, note) in enumerate(spans):
                self.calls[name] += 1
                self.total[name] += t1 - t0
                self.self_s[name] += t1 - t0 - child_s[i]
                self.durations[name].append(t1 - t0)
                if note is not None:
                    self.notes[name].append(note)
                if name in _SAMPLE and not self._inside(spans, parent, _SAMPLE):
                    self.sample_calls += 1
                    self.sample_s += t1 - t0

    @staticmethod
    def _inside(spans: list, parent: int, names: set) -> bool:
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def per_call(self, name: str, unit: float) -> float:
        return self.total[name] / self.calls[name] * unit if self.calls[name] else 0.0

    def self_per_call(self, name: str, unit: float) -> float:
        return self.self_s[name] / self.calls[name] * unit if self.calls[name] else 0.0


def layer_metrics(batches: list, records: list, workers: int,
                  overhead: float) -> dict:
    """Per-layer metrics of one traced sweep with its `records`.

    A decode is one trial (or ARQ episode) of one method; the trials of a
    signal level are those of its longest-running method.  Metrics of a
    layer the workload never reaches read 0."""
    st = _Stats(batches)
    decodes = sum(rec["trials"] for rec in records)
    trials_by_level = defaultdict(int)
    for rec in records:
        trials_by_level[rec["rho_db"]] = max(trials_by_level[rec["rho_db"]],
                                             rec["trials"])
    trials = sum(trials_by_level.values())
    us, ms = 1e6, 1e3
    gates = st.notes["reduction.gated_reduce"]
    swaps = [g["swaps"] for g in gates if g["swaps"] is not None]
    acks = st.notes["channels.arq_ack"]
    cells = st.durations["dmtsim.sweep_cell"]
    sweep_wall = st.total["dmtsim.run_sweep"]
    m = {
        "experiment.load_experiment.ms": st.per_call("experiment.load_experiment", ms),
        "lattice.enumerate_codebook.calls_per_decode":
            st.calls["lattice.enumerate_codebook"] / decodes,
        "lattice.enumerate_codebook.ms_per_call":
            st.per_call("lattice.enumerate_codebook", ms),
        "lattice.codebook_points_max":
            float(max(st.notes["lattice.enumerate_codebook"], default=0)),
        "channels.trial_rng.us_per_call": st.per_call("channels.trial_rng", us),
        "channels.trial_rng.calls_per_decode": st.calls["channels.trial_rng"] / decodes,
        "channels.sample.us_per_call":
            st.sample_s / st.sample_calls * us if st.sample_calls else 0.0,
        "channels.simulate_arq_episode.us_self":
            st.self_per_call("channels.simulate_arq_episode", us),
        "channels.arq_ack.nack_share":
            acks.count(False) / len(acks) if acks else 0.0,
    }
    for fname in ("cholesky_upper", "qr_decompose", "condition_number_2norm"):
        m[f"numkernel.{fname}.us_per_call"] = st.per_call(f"numkernel.{fname}", us)
    solves = ("numkernel.solve_upper_triangular", "numkernel.solve_lower_triangular")
    solve_calls = sum(st.calls[n] for n in solves)
    m["numkernel.solve_triangular.us_per_call"] = (
        sum(st.total[n] for n in solves) / solve_calls * us if solve_calls else 0.0)
    m["numkernel.qr_decompose.calls_per_decode"] = (
        st.calls["numkernel.qr_decompose"] / decodes)
    m["decoders.mmse_gdfe_filters.calls_per_trial"] = (
        st.calls["decoders.mmse_gdfe_filters"] / trials)
    for fname in ("mmse_gdfe_filters", "ml_decode", "sphere_decode_regularized",
                  "babai_nearest_plane", "lr_aided_linear"):
        m[f"decoders.{fname}.us_per_call"] = st.per_call(f"decoders.{fname}", us)
    for method in ("ml", "reg_exact", "lr_sic", "lr_linear"):
        m[f"decoders.decode.{method}.us_per_call"] = (
            st.per_call(f"decoders.decode.{method}", us))
    m["reduction.gated_reduce.calls_per_trial"] = (
        st.calls["reduction.gated_reduce"] / trials)
    m["reduction.gated_reduce.us_self"] = st.self_per_call("reduction.gated_reduce", us)
    m["reduction.lll_reduce.us_per_call"] = st.per_call("reduction.lll_reduce", us)
    m["reduction.lll_swaps_mean"] = statistics.fmean(swaps) if swaps else 0.0
    m["reduction.lll_swaps_max"] = float(max(swaps, default=0))
    m["reduction.swap_cap"] = float(max(
        (swap_cap(max(g["threshold"], 1.0), g["n"]) for g in gates), default=0))
    m["reduction.gate_refusals"] = float(sum(g["refused"] for g in gates))
    m["dmtsim.sweep_cell.s_max"] = max(cells, default=0.0)
    m["dmtsim.sweep_cell.s_sum"] = math.fsum(cells)
    m["dmtsim.loop.us_self_per_decode"] = st.self_s["dmtsim.sweep_cell"] / decodes * us
    m["cli.pool_busy"] = math.fsum(cells) / (workers * sweep_wall) if sweep_wall else 0.0
    m["cli.write_results.ms"] = sum(st.total[f"cli.{n}"] for n in (
        "write_results_csv", "write_results_json", "write_slopes_json")) * ms
    m["trace.overhead"] = overhead
    return m

