"""The benchmark's traced worker still finds every boundary it wraps.

perfbench/worker.py, run with trace = 1, wraps the functions its tracer
lists and reports any that are gone. A change that deletes a traced
function, or changes what it returns, shows up here rather than as a
broken benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIMULATE = "model = unit\nmu0 = 0.8\nomega2_0 = 0.4\ndesign = iid\nx0 = 1.0\nT = 1.0\nn = 20\ndt = 0.05\n"
FIT = "model = unit\nmu_lo = -3.0\nmu_hi = 3.0\nomega2_lo = 0.0\nomega2_hi = 4.0\n"


def test_traced_worker_reports_no_missing_boundary(tmp_path):
    out = tmp_path / "out"
    sim_cfg, fit_cfg = tmp_path / "simulate.cfg", tmp_path / "fit.cfg"
    sim_cfg.write_text(SIMULATE)
    fit_cfg.write_text(FIT + f"data = {out / 'paths.csv'}\n")
    spec = {
        "calls": [
            ["simulate", "--config", str(sim_cfg), "--out", str(out), "--seed", "3"],
            ["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "fit")],
        ],
        "configs": [str(sim_cfg), str(fit_cfg)],
        "trace": 1,
        "threads": 1,
        "report": str(tmp_path / "report.json"),
        "spans": str(tmp_path / "spans.json"),
    }
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["exit_codes"] == [0, 0]
    assert report["layers"]["missing"] == []
    assert report["layers"]["metrics"]["simulate.path_steps"] == 20 * 20
