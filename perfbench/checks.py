"""Output checks, run outside every timed region.

Each check is one attempted operation in the result; a check that fails
counts as a failed one, next to failed trials and unexpected exit codes.
"""
from __future__ import annotations

import random
import struct

import numpy as np

# gesdd (svlab) and gesvd (the oracle) are both backward stable, so their
# singular values agree to a few ulps of s_top; this leaves four orders of
# magnitude of room.
ORACLE_TOL = 1e-11
MASS_TOL = 1e-12


class Ledger:
    """Counts attempted and failed operations and keeps failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def count(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{failed} of {attempted} failed: {what}")

    def check(self, ok: bool, what: str) -> bool:
        self.count(1, 0 if ok else 1, what)
        return ok


def oracle_values(x: np.ndarray) -> np.ndarray:
    """Singular values from LAPACK gesvd, a different driver than svlab's."""
    import scipy.linalg

    return scipy.linalg.svd(x, compute_uv=False, lapack_driver="gesvd")


def check_against_oracle(ledger: Ledger, label: str, s_min: float, s_top: float,
                         oracle: np.ndarray) -> None:
    o_min, o_top = float(oracle[-1]), float(oracle[0])
    ledger.check(abs(s_min - o_min) <= ORACLE_TOL * o_top,
                 f"{label}: s_min {s_min!r} vs oracle {o_min!r}")
    ledger.check(abs(s_top - o_top) <= ORACLE_TOL * o_top,
                 f"{label}: s_top {s_top!r} vs oracle {o_top!r}")


def check_certificate(ledger: Ledger, label: str, cert: dict, s_min: float, s_top: float) -> None:
    """A valid certificate must bound s_min from above, up to the stated slack."""
    from svlab.certificates import CERT_SLACK

    if cert["valid"]:
        ledger.check(cert["certified_upper"] >= s_min - CERT_SLACK * s_top,
                     f"{label}: certified_upper {cert['certified_upper']!r} below s_min {s_min!r}")


def check_threshold_mass(ledger: Ledger, label: str, vectors: list, entries: list[dict]) -> None:
    """Recompute each stored threshold_mass from the stored bottom vector."""
    from svlab.localization import subset_mass

    bad = []
    for e in entries:
        u = np.asarray(vectors[e["k"] - 1], dtype=np.float64)
        mass = subset_mass(u, np.asarray(e["threshold_indices"], dtype=np.intp))
        if abs(mass * mass - e["threshold_mass"]) > MASS_TOL:
            bad.append((e["k"], e["c"]))
    ledger.check(not bad, f"{label}: threshold_mass mismatch at (k, c) {bad}")


def check_trials(ledger: Ledger, records: list) -> None:
    """Certificate soundness and stored masses, for every record of a sweep."""
    for rec in records:
        label = f"trial (alpha={rec.alpha}, n={rec.n}, t={rec.trial_index})"
        check_certificate(ledger, label, rec.certificate, rec.s_min, rec.s_top)
        check_threshold_mass(ledger, label, rec.bottom_vectors, rec.localization)


def check_oracle(ledger: Ledger, config, records: list, seed: int, samples: int) -> None:
    """Regenerate a seeded sample of the trials and compare with the oracle."""
    from svlab.ensemble import EnsembleConfig, sample_matrix

    for rec in random.Random(seed).sample(records, min(samples, len(records))):
        label = f"oracle (alpha={rec.alpha}, n={rec.n}, t={rec.trial_index})"
        ecfg = EnsembleConfig(n=rec.n, aspect=rec.aspect, law=config.law_for(rec.alpha),
                              seed=rec.seed)
        check_against_oracle(ledger, label, rec.s_min, rec.s_top,
                             oracle_values(sample_matrix(ecfg)))


def read_svlm(path) -> np.ndarray:
    """Read an SVLM matrix file without going through svlab.matrixio."""
    with open(path, "rb") as fh:
        magic, version, rows, cols = struct.unpack("<4sIII", fh.read(16))
        if magic != b"SVLM" or version != 1:
            raise ValueError(f"{path}: not an SVLM v1 file")
        return np.frombuffer(fh.read(), dtype="<f8").reshape(rows, cols)
