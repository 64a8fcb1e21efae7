"""Records do not depend on the BLAS kernel the host selects.

numpy's OpenBLAS is usually a DYNAMIC_ARCH build: it picks its kernel by
CPU at run time, so the last bits of a small matmul, QR or Cholesky can
differ from one host to the next.  `OPENBLAS_CORETYPE` forces a kernel
for one process.  Each test below reruns tests/test_pinned_records.py in
a subprocess under a forced kernel, so a pinned hash that depends on the
kernel fails here rather than on some other machine, and with it the
differential tests of the stacked block draw against the per-trial draw
and of the stacked block decode (large-book ML's stacked QR and its
fallbacks included) against the lane-by-lane loop, so a kernel whose
stacked matmul (h @ x, e @ x, H phi G, an OFDM tone sum, an outage Gram
matrix) or QR rounds apart from a lone one fails here too.  A test skips
when numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS or the CPU lacks the
instructions the kernel needs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without mode="dicts"
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@pytest.mark.parametrize("coretype, flag", [("Haswell", "avx2"), ("Sandybridge", "avx")])
def test_pinned_records_hold_under_forced_kernel(coretype, flag):
    if not _dynamic_arch_openblas():
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
    if flag not in _cpu_flags():
        pytest.skip(f"the CPU lacks {flag}, which the {coretype} kernel needs")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_pinned_records.py"),
         f"{ROOT / 'tests' / 'test_channels.py'}"
         "::test_block_draw_is_the_per_trial_draw_bit_for_bit",
         f"{ROOT / 'tests' / 'test_dmtsim.py'}::test_outage_block_draw_matches_the_per_trial_loop",
         f"{ROOT / 'tests' / 'test_dmtsim.py'}::test_block_decode_matches_the_per_lane_loop",
         f"{ROOT / 'tests' / 'test_dmtsim.py'}"
         "::test_block_ml_scans_in_chunks_and_searches_as_the_per_lane_loop",
         f"{ROOT / 'tests' / 'test_dmtsim.py'}"
         "::test_block_ml_search_of_a_rung_whose_stacked_qr_raises",
         f"{ROOT / 'tests' / 'test_dmtsim.py'}::test_block_ml_search_of_wide_and_unfilled_books",
         f"{ROOT / 'tests' / 'test_dmtsim.py'}::test_block_ml_search_of_a_box_book_tests_no_leaf"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
