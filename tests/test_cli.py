import json
import subprocess
import sys
from pathlib import Path

import pytest

from karcher.acceptance import FEM_LEVELS
from karcher.cli import load_config, main
from karcher.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def sphere_sweep_config(tmp_path, **overrides):
    """A sphere distortion sweep; an override of None drops its entry."""
    payload = {
        "kind": "distortion-sweep",
        "manifold": {"kind": "sphere", "dim": 2, "radius": 1.0},
        "ladder": {"h0": 0.2, "levels": 4},
        "seed": 0,
        "out": str(tmp_path / "reports"),
        "format": "csv",
    }
    payload.update(overrides)
    return write_config(tmp_path, {k: v for k, v in payload.items() if v is not None})


# -- config validation -------------------------------------------------------

def test_unknown_kind_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "mystery",
                                   "manifold": {"kind": "sphere"}})
    assert main(["run", path]) == 2
    assert "kind" in capsys.readouterr().err


def test_unknown_manifold_kind_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "distortion-sweep",
                                   "manifold": {"kind": "torus"}})
    assert main(["run", path]) == 2
    assert "manifold.kind" in capsys.readouterr().err


def test_too_few_ladder_levels_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {
            "kind": "distortion-sweep",
            "manifold": {"kind": "sphere"},
            "ladder": {"h0": 0.2, "levels": 3}}))


def test_bad_format_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {
            "kind": "distortion-sweep",
            "manifold": {"kind": "sphere"},
            "format": "xml"}))


def test_bad_ladder_flag_exits_2(tmp_path, capsys):
    path = sphere_sweep_config(tmp_path)
    assert main(["run", path, "--ladder", "nonsense"]) == 2


@pytest.mark.parametrize("field, overrides", [
    ("trials", {"kind": "jacobi-checks", "trials": 0}),
    ("seed", {"kind": "jacobi-checks", "trials": 2, "seed": -1}),
    ("manifold.radius", {"manifold": {"kind": "sphere", "radius": 0}}),
    ("manifold.curvature", {"manifold": {"kind": "hyperbolic",
                                         "curvature": -1}}),
    ("fem_levels", {"kind": "fem-poisson", "fem_levels": [-1, 0, 1, 2]}),
    ("ladder.levels", {"ladder": {"h0": 0.2, "levels": "five"}}),
    ("ladder.h0", {"ladder": {"h0": -0.2, "levels": 4}}),
    ("ladder", {"ladder": 5}),
    ("manifold", {"manifold": "sphere"}),
    ("manifold.dim", {"manifold": {"kind": "sphere", "dim": 0}}),
    ("manifold.dim", {"kind": "fem-poisson",
                      "manifold": {"kind": "sphere", "dim": 3}}),
    # Integers are not coerced from strings, floats or booleans.
    ("fem_levels", {"kind": "fem-poisson", "fem_levels": "0123"}),
    ("fem_levels", {"kind": "fem-poisson", "fem_levels": [1, 2, 3.0, 4]}),
    ("ladder.levels", {"ladder": {"h0": 0.2, "levels": 4.7}}),
    ("trials", {"kind": "jacobi-checks", "trials": 2.9}),
    ("trials", {"kind": "jacobi-checks", "trials": True}),
    ("manifold.dim", {"manifold": {"kind": "sphere", "dim": 2.5}}),
    ("seed", {"seed": "7"}),
    # Floats are not coerced from strings or booleans.
    ("manifold.radius", {"manifold": {"kind": "sphere", "radius": "2"}}),
    ("manifold.curvature", {"manifold": {"kind": "hyperbolic", "curvature": True}}),
    ("ladder.h0", {"ladder": {"h0": "0.2", "levels": 4}}),
    ("manifold", {"manifold": None}),
    ("manifold.dim", {"manifold": {"kind": "sphere", "dim": 1}}),
    ("fem_levels", {"kind": "fem-poisson", "fem_levels": [1, 2, 3]}),
    ("fem_mode", {"kind": "fem-poisson", "fem_mode": "lumped"}),
])
def test_out_of_range_value_exits_2(tmp_path, capsys, field, overrides):
    path = sphere_sweep_config(tmp_path, **overrides)
    assert main(["run", path]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{\"kind\": ", "[1, 2]"], ids=["invalid", "not-object"])
def test_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "config error: json:" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # ladder too coarse for the sphere's convexity radius
    path = sphere_sweep_config(tmp_path)
    assert main(["run", path, "--ladder", "3.5,4"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# -- distortion sweep --------------------------------------------------------

def test_sphere_sweep_csv_contract(tmp_path):
    path = sphere_sweep_config(tmp_path)
    assert main(["run", path]) == 0
    out = tmp_path / "reports" / "distortion-sweep.csv"
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "h,theta,metric_gap,connection_gap,dx_sigma_gap,nabla_dx"
    assert len(data) == 1 + 4 + 1  # header, 4 levels, slope footer
    assert data[-1].startswith("slope,")
    slopes = [float(x) for x in data[-1].split(",")[2:]]
    assert abs(slopes[0] - 2.0) <= 0.25
    # provenance comments present
    assert any(l.startswith("# version:") for l in lines)
    assert any(l.startswith("# config:") for l in lines)


def test_sweep_idempotent_and_seed_override(tmp_path):
    path = sphere_sweep_config(tmp_path, format="json")
    assert main(["run", path]) == 0
    out = tmp_path / "reports" / "distortion-sweep.json"
    first = out.read_bytes()
    assert main(["run", path, "--seed", "0"]) == 0
    assert out.read_bytes() == first


def test_sweep_json_roundtrip(tmp_path):
    path = sphere_sweep_config(tmp_path, format="json")
    assert main(["run", path]) == 0
    payload = json.loads((tmp_path / "reports" /
                          "distortion-sweep.json").read_text())
    report = payload["report"]
    assert set(report) == {"samples", "fitted_slopes"}
    assert len(report["samples"]) == 4
    assert all(set(sample) == {"h", "theta", "metric_gap", "connection_gap",
                               "dx_sigma_gap", "nabla_dx"}
               for sample in report["samples"])
    assert set(report["fitted_slopes"]) == {
        "metric_gap", "connection_gap", "dx_sigma_gap", "nabla_dx"}
    assert all(set(fit) == {"slope", "intercept", "stderr", "n_used",
                            "dropped_coarsest"}
               for fit in report["fitted_slopes"].values())
    assert payload["version"]
    assert payload["config"]["kind"] == "distortion-sweep"


DATA = Path(__file__).parent / "data"
CONFIG_DIR = Path(__file__).parents[1] / "configs"


def _distortion_report(path: Path) -> tuple[list[dict], dict]:
    """Per-level samples and fitted slopes of a distortion-sweep report,
    CSV or JSON."""
    if path.suffix == ".json":
        report = json.loads(path.read_text())["report"]
        return report["samples"], {k: v["slope"] for k, v in
                                   report["fitted_slopes"].items()}
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, l.split(",")))) for l in lines[1:-1]]
    slopes = dict(zip(header[2:], map(float, lines[-1].split(",")[2:])))
    return rows, slopes


@pytest.mark.parametrize("name, fmt", [("sphere_distortion", "csv"),
                                       ("hyperbolic_distortion", "json")])
def test_distortion_reports_match_stored_reports(tmp_path, name, fmt):
    # tests/data holds the reports of these configs from before the sweep
    # ran on batched jets; the batch changes rounding only.
    assert main(["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path)]) == 0
    rows, slopes = _distortion_report(tmp_path / f"distortion-sweep.{fmt}")
    want_rows, want_slopes = _distortion_report(DATA / f"{name}.{fmt}")
    assert len(rows) == len(want_rows) == 5
    for got, want in zip(rows, want_rows):
        assert (got["h"], got["theta"]) == (want["h"], want["theta"])
        for q in ("metric_gap", "connection_gap", "dx_sigma_gap", "nabla_dx"):
            assert got[q] == pytest.approx(want[q], rel=1e-9, abs=0.0)
    assert slopes.keys() == want_slopes.keys()
    for q, slope in want_slopes.items():
        assert slopes[q] == pytest.approx(slope, rel=1e-9, abs=0.0)


def test_fem_report_matches_stored_report(tmp_path):
    # tests/data holds the report of configs/fem_poisson.json as it was
    # before the FEM callbacks were batched.  The flat FEM path is held to
    # it at roundoff: the error norms' closed-form metric data moves the
    # report by a few ulps at most.
    assert main(["run", str(CONFIG_DIR / "fem_poisson.json"), "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "fem-poisson.json").read_text())
    want = json.loads((DATA / "fem_poisson.json").read_text())
    assert len(got["records"]) == len(want["records"]) == 4
    for row, want_row in zip(got["records"], want["records"]):
        assert (row["level"], row["dof"]) == (want_row["level"], want_row["dof"])
        for key in ("h", "l2_error", "h1_error"):
            assert row[key] == pytest.approx(want_row[key], rel=1e-14, abs=0.0)
    assert got["fitted_slopes"].keys() == want["fitted_slopes"].keys()
    for key, fit in want["fitted_slopes"].items():
        assert got["fitted_slopes"][key]["slope"] == pytest.approx(
            fit["slope"], rel=1e-14, abs=0.0)
    assert got["failures"] == want["failures"]


@pytest.mark.parametrize("name", ["jacobi_checks", "flat_simplex_props"])
def test_check_reports_match_stored_reports(tmp_path, name):
    # tests/data holds the reports of these configs; every data row must
    # come back bit for bit.  The comment lines are left out: the config
    # line names the --out directory.
    assert main(["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path)]) == 0

    def rows(path: Path) -> list[str]:
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    got = rows(tmp_path / f"{name.replace('_', '-')}.csv")
    assert len(got) > 100
    assert got == rows(DATA / f"{name}.csv")


def test_euclidean_sweep_asserts_flatness(tmp_path):
    path = write_config(tmp_path, {
        "kind": "distortion-sweep",
        "manifold": {"kind": "euclidean", "dim": 3},
        "ladder": {"h0": 0.2, "levels": 4},
        "out": str(tmp_path / "reports"),
        "format": "json"})
    assert main(["run", path]) == 0


# -- other experiment kinds ----------------------------------------------------

def test_jacobi_checks_run(tmp_path):
    path = write_config(tmp_path, {
        "kind": "jacobi-checks",
        "manifold": {"kind": "hyperbolic", "dim": 2, "curvature": 1.0},
        "trials": 10,
        "seed": 3,
        "out": str(tmp_path / "reports"),
        "format": "json"})
    assert main(["run", path]) == 0
    payload = json.loads((tmp_path / "reports" /
                          "jacobi-checks.json").read_text())
    assert payload["max_gap"] <= 1e-8
    assert len(payload["cases"]) == 10


def test_flat_simplex_props_run(tmp_path):
    path = write_config(tmp_path, {
        "kind": "flat-simplex-props",
        "manifold": {"kind": "euclidean", "dim": 3},
        "trials": 25,
        "seed": 5,
        "out": str(tmp_path / "reports"),
        "format": "csv"})
    assert main(["run", path]) == 0
    lines = (tmp_path / "reports" / "flat-simplex-props.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "trial,n,volume_gap,eigen_contained"
    assert len(data) == 1 + 25


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_fem_poisson_json_contract(tmp_path, radius):
    path = write_config(tmp_path, {
        "kind": "fem-poisson",
        "manifold": {"kind": "sphere", "dim": 2, "radius": radius},
        "fem_levels": [0, 1, 2, 3],
        "fem_mode": "flat",
        "out": str(tmp_path / "reports"),
        "format": "json"})
    assert main(["run", path]) == 0
    payload = json.loads((tmp_path / "reports" / "fem-poisson.json").read_text())
    assert [r["level"] for r in payload["records"]] == [0, 1, 2, 3]
    for key in ("level", "h", "dof", "l2_error", "h1_error"):
        assert key in payload["records"][0]
    assert payload["fitted_slopes"]["h1_error"]["slope"] >= 0.8


def test_fem_requires_sphere(tmp_path, capsys):
    path = write_config(tmp_path, {
        "kind": "fem-poisson",
        "manifold": {"kind": "euclidean", "dim": 3},
        "fem_levels": [0, 1, 2, 3],
        "out": str(tmp_path / "reports")})
    assert main(["run", path]) == 2
    assert "manifold.kind" in capsys.readouterr().err


# -- committed configs -------------------------------------------------------

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_config_runs(tmp_path, path):
    cfg = load_config(str(path))
    if cfg.kind == "fem-poisson":
        # test_fem_report_matches_stored_report runs this config, and
        # criterion 10 runs the same definition at the same levels.
        assert (cfg.fem_levels, cfg.fem_mode, cfg.manifold.radius) == (
            FEM_LEVELS, "flat", 1.0)
        return
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0


# -- verify ----------------------------------------------------------------------

def test_verify_flat_simplex_suite(capsys):
    assert main(["verify", "flat-simplex"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "everything-everywhere"]) == 2


# -- start-up ----------------------------------------------------------------------

_IMPORT_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return [m for m in ("scipy.integrate", "scipy.sparse", "scipy.stats")
            if m in sys.modules]

out = {}
import karcher, karcher.cli, karcher.acceptance, karcher.harness
out["cli"] = loaded()
import karcher.fem
out["fem"] = loaded()
import numpy as np
from karcher.manifolds import ChartManifold
man = ChartManifold(2, lambda x: np.eye(2), lambda x: np.zeros((2, 2, 2)))
p = man.point([0.0, 0.0])
man.exp(p, man.tangent(p, [0.1, 0.2]))
out["exp"] = loaded()
print(json.dumps(out))
"""


def test_entry_points_load_only_the_scipy_they_use():
    # A fresh interpreter: this test session has imported all of scipy.
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, src],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = json.loads(proc.stdout)
    assert loaded["cli"] == []
    assert loaded["fem"] == ["scipy.sparse"]
    assert "scipy.integrate" in loaded["exp"]
