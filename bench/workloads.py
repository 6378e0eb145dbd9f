"""The benchmark's workloads: the CLI invocations of one pass, and output checks.

A pass is a list of ``focksim run`` argument vectors, generated from the
workload seed alone; the program sees nothing but these vectors and
``FOCKSIM_OUT_DIR``.  Every invocation names its own output file, so all
outputs of a pass can be checked after the pass has been timed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

DIGESTS_FILE = Path(__file__).with_name("digests.json")

# the seed the recorded output digests belong to (ROADMAP: seed=42)
DEFAULT_SEED = 42

# frequency check of sampled GHZ runs: |count - N p| <= Z sqrt(N p (1-p)) + 1
GHZ_FREQUENCY_Z = 5.0

# Mean corrected fidelity of a visited interval in a sampled GHZ run.  A draw
# near a decision threshold keeps some amplitude of the neighbouring branch
# (the closest peaks, branches 0 and 1, sit 10 sigma apart at the defaults),
# and one draw in ~3e6 lands past the threshold and is repaired as the wrong
# branch.  So the mean over the ~111 draws of an interval is not 1 - 1e-9 for
# every seed (seed 2 gives 1 - 1.4e-7 in interval 8); 1e-2 admits one such
# misassignment per interval and still fails any broken flip or phase repair,
# which costs about half the fidelity.  Peak-centre (exact) runs keep 1e-9.
SAMPLED_FIDELITY_LOSS = 1e-2
EXACT_FIDELITY_LOSS = 1e-9

# probe parameters of every invocation: the CLI defaults
ALPHA = 1000.0
THETA = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # what one item of items_per_s is
    items: int  # items in one full pass
    min_items: int  # items in the one-item pass timed by setup_s
    seeded: bool  # False when the seed does not enter the inputs
    argvs: Callable[[int, int], list[list[str]]]  # (seed, items) -> invocations


def _prep_sweep(seed: int, items: int) -> list[list[str]]:
    # deterministic: the seed does not enter
    return [["run", "psi-theta", f"grid={items}", "output=psi-theta.csv"]]


def _ghz_sampled(seed: int, items: int) -> list[list[str]]:
    return [["run", "ghz-circuit", f"samples={items}", f"seed={seed % 2**64}", "output=ghz-sampled.csv"]]


def _detector_readout(seed: int, items: int) -> list[list[str]]:
    rng = random.Random(seed)
    argvs = []
    for i in range(items):
        a = rng.uniform(0.0, 2.0 * math.pi)
        pair = [f"m0={math.cos(a)!r}", f"n0={math.sin(a)!r}"]
        argvs.append(["run", "cascade", *pair, "k=30", f"output=cascade-{i}.csv"])
        argvs.append(["run", "homodyne-sweep", *pair, "grid=200", f"output=sweep-{i}.csv"])
    argvs.append(["run", "ghz-circuit", "samples=0", "output=ghz-exact.csv"])
    return argvs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prep-sweep",
            "dense mixing: ModeTransform.apply on kets growing to 3136 terms; no kerr and no polarizing splitters",
            "theta point",
            items=20,
            min_items=2,
            seeded=False,
            argvs=_prep_sweep,
        ),
        Workload(
            "ghz-sampled",
            "per-sample readout loop: permutation (PBS) apply on 20-term kets after one fixed set-up",
            "homodyne draw",
            items=2000,
            min_items=1,
            seeded=True,
            argvs=_ghz_sampled,
        ),
        Workload(
            "detector-readout",
            "many small calls: detector, conditioning on an x grid, cascades and one exact GHZ run",
            "coefficient pair",
            items=20,
            min_items=1,
            seeded=True,
            argvs=_detector_readout,
        ),
    )
}


# -- output checks ----------------------------------------------------------


def _params(argv: list[str]) -> dict[str, str]:
    return dict(arg.split("=", 1) for arg in argv[2:])


def output_path(out_dir: Path, argv: list[str]) -> Path:
    return out_dir / _params(argv)["output"]


def _rows(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as handle:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]


@cache
def _exact_interval_probabilities() -> tuple[float, ...]:
    """Interval probabilities of the closed-form prepared state."""
    from focksim.schemes import interval_probabilities, psi_theta_reference

    return interval_probabilities(psi_theta_reference(math.pi / 2.0), ALPHA, THETA)


def _check_psi_theta(rows, params) -> str | None:
    if len(rows) != int(params["grid"]):
        return f"{len(rows)} rows for grid={params['grid']}"
    worst = min(row["fidelity_vs_reference"] for row in rows)
    if not worst >= 1.0 - 1e-12:
        return f"fidelity_vs_reference {worst!r} below 1 - 1e-12"
    return None


def _check_ghz(rows, params) -> str | None:
    samples = int(params["samples"])
    probabilities = [row["probability"] for row in rows]
    if len(rows) != 10:
        return f"{len(rows)} intervals, expected 10"
    if not abs(sum(probabilities) - 1.0) <= 1e-12:
        return f"interval probabilities sum to {sum(probabilities)!r}"
    if samples == 0:
        worst = min(row["fidelity_after_correction"] for row in rows)
        if not worst >= 1.0 - EXACT_FIDELITY_LOSS:
            return f"peak-centre fidelity {worst!r} below 1 - {EXACT_FIDELITY_LOSS}"
        return None
    for row, p in zip(rows, _exact_interval_probabilities()):
        count = round(row["probability"] * samples)
        if count and not row["fidelity_after_correction"] >= 1.0 - SAMPLED_FIDELITY_LOSS:
            return f"interval {int(row['interval'])} fidelity {row['fidelity_after_correction']!r}"
        if abs(count - samples * p) > GHZ_FREQUENCY_Z * math.sqrt(samples * p * (1.0 - p)) + 1.0:
            return f"interval {int(row['interval'])}: {count} of {samples} draws, exact p={p!r}"
    return None


def _check_cascade(rows, params) -> str | None:
    if len(rows) != int(params["k"]):
        return f"{len(rows)} rows for k={params['k']}"
    # The closed-form pair before step k is A^(k-1) (m0, n0), A = [[1, 3], [3, 1]];
    # its success probability (5 + 12 m n)/8 at m^2 + n^2 = 1/2 is
    # (5 + 6 m n / (m^2 + n^2))/8 for any scale.  Exact rationals, because in
    # floats the 4^k and (-2)^k parts cancel for m0 near -n0 and the CSV's own
    # m_k, n_k, C_k columns then drift by ~3e-12.
    m, n = Fraction(float(params["m0"])), Fraction(float(params["n0"]))
    for row in rows:
        expected = float((5 + 6 * m * n / (m * m + n * n)) / 8)
        if not abs(row["step_success_prob"] - expected) <= 1e-12:
            return f"step {int(row['k'])}: success {row['step_success_prob']!r}, closed form {expected!r}"
        m, n = m + 3 * n, 3 * m + n
    return None


def _check_sweep(rows, params) -> str | None:
    if len(rows) != int(params["grid"]):
        return f"{len(rows)} rows for grid={params['grid']}"
    for row in rows:
        if any(math.isnan(v) for v in row.values()):
            return f"NaN cell at x={row['x']!r}"
        if not row["pdf"] >= 0.0:
            return f"negative pdf at x={row['x']!r}"
    return None


_CHECKS = {
    "psi-theta": _check_psi_theta,
    "ghz-circuit": _check_ghz,
    "cascade": _check_cascade,
    "homodyne-sweep": _check_sweep,
}


def output_digest(out_dir: Path, argv: list[str]) -> str:
    path = output_path(out_dir, argv)
    return hashlib.sha256(path.read_bytes() + Path(str(path) + ".meta").read_bytes()).hexdigest()


@cache
def recorded_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_FILE.read_text())


def check_invocation(workload: Workload, seed: int, items: int, out_dir: Path, argv: list[str]) -> str | None:
    """Why an exited-0 invocation's output is wrong, or None when it is right.

    Full-size passes at the default seed (any seed, for a workload the seed
    does not enter) are also compared byte for byte with the digests
    recorded in ``digests.json``.
    """
    params = _params(argv)
    try:
        problem = _CHECKS[argv[1]](_rows(output_path(out_dir, argv)), params)
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable output: {exc!r}"
    if problem is None and items == workload.items and (seed == DEFAULT_SEED or not workload.seeded):
        expected = recorded_digests()[workload.name].get(params["output"])
        actual = output_digest(out_dir, argv)
        if actual != expected:
            problem = f"output digest {actual} differs from recorded {expected}"
    return problem
