"""The svlab package exports exactly what its modules list in their __all__."""
import importlib

import pytest

import svlab

MODULES = ["ensemble", "matrixio", "spectra", "localization", "certificates", "svgplot", "experiments"]

# What `import svlab` offered before the package took its names from the modules' __all__.
EARLIER_EXPORTS = """
    EnsembleConfig LawKind TailBounds TailLaw derive_stream sample_matrix
    MatrixFormatError load_matrix save_matrix save_matrix_csv
    SpectralError SpectralResult full_svd operator_norm
    LocalizationReport cardinality_bound ipr localization_report min_mass_profile subset_mass
    threshold_set top_mass
    CertificateReport default_tau_for_rows heavy_census small_column_set upper_certificate
    bar_chart line_chart vector_profile
    BaiYinReport BracketReport ScalingFit SweepConfig TransitionTable TrialRecord baiyin_check
    bracket_check derive_trial_seed fit_scaling kth_vector_scan read_records run_sweep run_trial
    transition_scan write_fits write_manifest write_records write_summary
""".split()


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_is_a_package_export(name):
    module = importlib.import_module(f"svlab.{name}")
    for symbol in module.__all__:
        assert getattr(svlab, symbol, None) is getattr(module, symbol), f"svlab.{symbol}"


def test_no_earlier_export_is_dropped():
    assert len(EARLIER_EXPORTS) == 49
    assert [name for name in EARLIER_EXPORTS if not hasattr(svlab, name)] == []

