"""Host record attached to every benchmark result."""
from __future__ import annotations

import os
import platform

# Set in every workload process before numpy loads. With the default thread
# count, two pool workers each running two OpenBLAS threads oversubscribe a
# two-core host and sweep throughput swings by a factor of four between runs.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def host_record(workers: int) -> dict:
    """Cores, BLAS build, thread settings and versions for this process."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": workers,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def oversubscription_warning(host: dict) -> str | None:
    """A warning line when workers x BLAS threads exceeds the cores, else None."""
    blas = int(host["thread_vars"]["OPENBLAS_NUM_THREADS"] or host["cores"])
    if host["workers"] * blas > host["cores"]:
        return (f"warning: {host['workers']} workers x {blas} BLAS threads = "
                f"{host['workers'] * blas} exceeds {host['cores']} cores")
    return None
