"""Smoke tests: each experiment script runs on a small input and prints its table."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("local_net_density.py", ["--n", "60", "--seeds", "2"], "mean dens"),
        ("second_eig_sweep.py", ["--sizes", "64,128", "--out-dir", "{tmp}"], "fp_ok"),
        ("tree_decay.py", ["--degrees", "3", "--N", "200", "--window", "20:200",
                           "--out-dir", "{tmp}"], "rho_hat"),
    ],
)
def test_script_runs(tmp_path, script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         *[a.format(tmp=tmp_path) for a in args]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout
