"""Byte-exact text of every CSV svlab writes, pinned on hand-built records.

The inputs are literal floats pushed through medians, means and plain
arithmetic only (no LAPACK), so the expected text is the same on every
platform. The scaling table's envelope ratio also calls pow and log.
"""
from svlab.cli import main
from svlab.records import ScalingFit, write_fits, write_records, write_summary

from test_experiments import synth_record


def _grid_records():
    """Two alphas at n=6 with three bottom vectors; one degenerate, one finite certificate."""
    recs = []
    for alpha in (1.5, 3.0):
        for t, (s_min, mass, ipr) in enumerate([(0.25, 0.3, 0.125), (0.75, 0.7, 0.375), (1.5, 0.9, 0.5)]):
            rec = synth_record(
                alpha=alpha, n=6, trial=t, s_min=s_min * alpha, threshold_mass=mass,
                min_mass=1.0 - mass, ipr=ipr, degenerate=(alpha == 1.5 and t == 2),
                k_vectors=3, c_grid=(0.5, 1.0), epsilons=(0.1, 0.3),
            )
            if t == 0:
                rec.certificate["certified_upper"] = 2.5 * alpha
            recs.append(rec)
    return recs


def _scaling_records():
    return [
        synth_record(alpha=1.2, n=n, trial=t, s_min=n * (0.5 + 0.125 * t))
        for n in (50, 100, 200)
        for t in range(5)
    ]


def _baiyin_records():
    return [
        synth_record(alpha=3.0, n=n, trial=t, s_min=0.25 * (n + t))
        for n in (8, 32)
        for t in range(3)
    ]


def _report(records, kind, tmp_path, *flags):
    path = tmp_path / f"{kind}.jsonl"
    write_records(records, path)
    dest = tmp_path / f"rep_{kind}"
    assert main(["report", "--records", str(path), "--kind", kind, "--out-dir", str(dest), *flags]) == 0
    return (dest / f"{kind}.csv").read_bytes()


def _outputs(tmp_path) -> dict[str, bytes]:
    write_summary(_grid_records(), tmp_path / "summary.csv")
    fits = [
        ScalingFit(alpha=1.2, ns=[50, 100, 200], medians=[1.0, 2.0, 4.0],
                   slope=0.75, intercept=-1.0 / 3.0, slope_corrected=0.625, residual_sse=1e-30),
        ScalingFit(alpha=2.5, ns=[50, 100, 200, 400], medians=[1.0, 2.0, 4.0, 8.0],
                   slope=0.5, intercept=0.1, slope_corrected=None, residual_sse=0.0),
    ]
    write_fits(fits, tmp_path / "fits.csv")
    return {
        "summary": (tmp_path / "summary.csv").read_bytes(),
        "fits": (tmp_path / "fits.csv").read_bytes(),
        "transition": _report(_grid_records(), "transition", tmp_path),
        "kth": _report(_grid_records(), "kth", tmp_path),
        "scaling": _report(_scaling_records(), "scaling", tmp_path, "--alpha", "1.2"),
        "baiyin": _report(_baiyin_records(), "baiyin", tmp_path),
    }


# csv.writer ends every row with \r\n.
EXPECTED = {
    "summary": [
        "alpha,n,aspect,statistic,value",
        "1.5,6,2.0,trials,3.0",
        "1.5,6,2.0,median_s_min,1.125",
        "1.5,6,2.0,median_s_top,11.25",
        "1.5,6,2.0,median_heavy_count,0.0",
        "1.5,6,2.0,degenerate_fraction,0.3333333333333333",
        "1.5,6,2.0,certificate_valid_fraction,0.0",
        "1.5,6,2.0,median_certified_upper,3.75",
        "1.5,6,2.0,median_s_bottom_2,1.2375",
        "1.5,6,2.0,median_s_bottom_3,1.3499999999999999",
        "1.5,6,2.0,median_threshold_mass_c=0.5,0.7",
        "1.5,6,2.0,median_threshold_mass_c=1,0.7",
        "1.5,6,2.0,median_min_mass_eps=0.1,0.30000000000000004",
        "1.5,6,2.0,median_min_mass_eps=0.3,0.30000000000000004",
        "1.5,6,2.0,median_ipr,0.375",
        "3.0,6,2.0,trials,3.0",
        "3.0,6,2.0,median_s_min,2.25",
        "3.0,6,2.0,median_s_top,22.5",
        "3.0,6,2.0,median_heavy_count,0.0",
        "3.0,6,2.0,degenerate_fraction,0.0",
        "3.0,6,2.0,certificate_valid_fraction,0.0",
        "3.0,6,2.0,median_certified_upper,7.5",
        "3.0,6,2.0,median_s_bottom_2,2.475",
        "3.0,6,2.0,median_s_bottom_3,2.6999999999999997",
        "3.0,6,2.0,median_threshold_mass_c=0.5,0.7",
        "3.0,6,2.0,median_threshold_mass_c=1,0.7",
        "3.0,6,2.0,median_min_mass_eps=0.1,0.30000000000000004",
        "3.0,6,2.0,median_min_mass_eps=0.3,0.30000000000000004",
        "3.0,6,2.0,median_ipr,0.375",
    ],
    "fits": [
        "alpha,n_points,slope,intercept,slope_corrected,residual_sse",
        "1.2,3,0.75,-0.3333333333333333,0.625,1e-30",
        "2.5,4,0.5,0.1,,0.0",
    ],
    "transition": [
        "alpha,n,trials,used,median_threshold_mass,median_min_mass,theorem_mass_fraction,median_ipr",
        "1.5,6,3,2,0.5,0.5,0.0,0.25",
        "3.0,6,3,3,0.7,0.30000000000000004,0.3333333333333333,0.375",
    ],
    "kth": [
        "alpha,n,k,in_regime,used,degenerate,median_value,median_threshold_mass,median_min_mass,median_ipr",
        "1.5,6,1,True,2,1,0.75,0.5,0.5,0.25",
        "1.5,6,2,True,2,1,0.8250000000000001,0.5,0.5,0.25",
        "1.5,6,3,False,2,1,0.8999999999999999,0.5,0.5,0.25",
        "3.0,6,1,True,3,0,2.25,0.7,0.30000000000000004,0.375",
        "3.0,6,2,True,3,0,2.475,0.7,0.30000000000000004,0.375",
        "3.0,6,3,False,3,0,2.6999999999999997,0.7,0.30000000000000004,0.375",
    ],
    "scaling": [
        "n,median_s_min,envelope_ratio",
        "50,37.5,2.268245532341532",
        "100,75.0,2.688292321077514",
        "200,150.0,3.1618814711716063",
    ],
    "baiyin": [
        "n,mean_ratio,limit",
        "8,0.5625,0.2928932188134524",
        "32,1.03125,0.2928932188134524",
    ],
}


def test_every_csv_is_byte_exact(tmp_path, capsys):
    expected = {name: "\r\n".join(rows + [""]).encode("ascii") for name, rows in EXPECTED.items()}
    assert _outputs(tmp_path) == expected
