"""svlab: a numerical laboratory for heavy-tailed rectangular random matrices.

Sampling of polynomial-tail ensembles, verified singular value
decompositions, localization statistics of bottom singular vectors,
constructive upper certificates for the smallest singular value, and a
deterministic Monte Carlo sweep harness with analysis scans.
"""

__version__ = "0.1.0"

from .ensemble import (  # noqa: E402,F401
    EnsembleConfig,
    LawKind,
    TailBounds,
    TailLaw,
    derive_stream,
    sample_matrix,
)
from .matrixio import (  # noqa: E402,F401
    MatrixFormatError,
    load_matrix,
    load_matrix_csv,
    save_matrix,
    save_matrix_csv,
)
from .spectra import (  # noqa: E402,F401
    SpectralError,
    SpectralResult,
    full_svd,
    operator_norm,
)
from .localization import (  # noqa: E402,F401
    LocalizationReport,
    cardinality_bound,
    ipr,
    localization_report,
    min_mass_profile,
    subset_mass,
    threshold_set,
    top_mass,
)
from .certificates import (  # noqa: E402,F401
    CertificateReport,
    default_tau,
    heavy_census,
    small_column_set,
    upper_certificate,
)
from .svgplot import (  # noqa: E402,F401
    bar_chart,
    line_chart,
    vector_profile,
)
from .experiments import (  # noqa: E402,F401
    BaiYinReport,
    BracketReport,
    ScalingFit,
    SweepConfig,
    TransitionTable,
    TrialRecord,
    baiyin_check,
    bracket_check,
    default_sweep_config,
    derive_trial_seed,
    fit_scaling,
    kth_vector_scan,
    read_records,
    run_sweep,
    run_trial,
    transition_scan,
    write_fits,
    write_manifest,
    write_records,
    write_summary,
)
