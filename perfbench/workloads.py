"""The four benchmark workloads, each written out as an experiment file.

Every workload is an experiment document that goes through
`latdec.load_experiment`, so the set-up probe, the in-process sweep and the
CLI all read the same validated `SweepConfig`.

* fixed_count_2x2      shipped vblast_2x2 design and channel, four methods,
                       all six signal levels, a fixed trial count.  GDFE,
                       the condition gate, LLL and numkernel dominate.
* rate_growth_2x2      same design at r = 1.5; the codebook grows from
                       4^4 = 256 to 17^4 = 83521 points over the grid, so
                       the ML scan and codebook enumeration dominate the top
                       cells while LLL work stays flat.
* arq_2round           two-round incremental-redundancy ARQ on the same base
                       design; x_thresh = 2.0 makes round 1 both ACK and
                       NACK.  Channels and lattice layers dominate.
* pilot_time_to_slope  shipped configs/pilot_1x1.yaml, unchanged (its own
                       seed, its stopping rule on), run through
                       `latdec sweep --workers 2`.

The fixed-count workloads take their experiment seed from --seed;
min_errors sits above max_trials, so every cell runs exactly the fixed
trial count.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from pathlib import Path

import yaml

#: min_errors above every max_trials below: stopping is out of reach.
OUT_OF_REACH = 10**9


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str          # shipped config the workload starts from
    sweep: dict | None        # replaced `sweep` keys; None = file unchanged
    channel: dict | None = None

    @property
    def fixed_trials(self) -> int | None:
        """Trials every cell runs, or None when the stopping rule runs."""
        return None if self.sweep is None else self.sweep["max_trials"]

    @property
    def via_cli(self) -> bool:
        """Timed through `latdec sweep --workers 2` rather than in process."""
        return self.sweep is None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fixed_count_2x2",
            base_config="configs/vblast_2x2.yaml",
            sweep={"r": 0.0, "methods": ["ml", "reg_exact", "lr_sic", "lr_linear"],
                   "max_trials": 150}),
        Workload(
            name="rate_growth_2x2",
            base_config="configs/vblast_2x2.yaml",
            sweep={"r": 1.5, "methods": ["ml", "lr_linear"],
                   "rho_db": [12.0, 16.0, 20.0, 24.0, 28.0, 31.0],
                   "max_trials": 100}),
        Workload(
            name="arq_2round",
            base_config="configs/vblast_2x2.yaml",
            sweep={"r": 1.0, "methods": ["ml", "lr_linear"],
                   "rho_db": [10.0, 15.0, 20.0], "max_trials": 200},
            channel={"model": "mimo_arq", "nt": 2, "nr": 2,
                     "arq": {"rounds": 2, "x_thresh": 2.0}}),
        Workload(
            name="pilot_time_to_slope",
            base_config="configs/pilot_1x1.yaml",
            sweep=None),
    )
}


def experiment_seed(workload: str, seed: int) -> int:
    """Experiment seed derived from the benchmark seed and the workload."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def build_document(root: Path, workload: Workload, seed: int) -> dict:
    """The experiment document of `workload` at benchmark seed `seed`."""
    with open(root / workload.base_config, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if workload.sweep is None:
        return doc
    doc = copy.deepcopy(doc)
    doc["sweep"].update(copy.deepcopy(workload.sweep))
    doc["sweep"]["min_errors"] = OUT_OF_REACH
    doc["sweep"]["seed"] = experiment_seed(workload.name, seed)
    if workload.channel is not None:
        doc["channel"] = copy.deepcopy(workload.channel)
    return doc


def write_config(root: Path, workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's experiment file into `out_dir`; return its path.

    The pilot is copied byte for byte, so the CLI reads the shipped file."""
    path = out_dir / "experiment.yaml"
    if workload.sweep is None:
        path.write_bytes((root / workload.base_config).read_bytes())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(build_document(root, workload, seed), fh,
                           sort_keys=True)
    return path
