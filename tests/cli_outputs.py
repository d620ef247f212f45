"""Run the CLI invocations of the test suite and keep every file they write.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/cli_outputs.py OUTDIR

Every run gets its own directory under OUTDIR: the determinism battery of
``test_acceptance.py`` and the battery of ``test_cli.py`` one each, each
``PINNED`` invocation one, then one sweep per suite and two sweeps whose
tolerance fails rows. ``OUTDIR/exit_codes.txt`` lists each run's exit code.
Point ``PYTHONPATH`` at another checkout's ``src`` to run the same
invocations on that code; an empty ``diff -r`` of the two OUTDIRs shows
that both write the same bytes. pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from test_acceptance import DETERMINISM_BATTERY
from test_cli import BATTERY, PINNED, SECOND_EIG_CFG, sweep_config

from spectop.cli import main

FAMILIES = [{"family": "cycle", "n": 20}, {"family": "random-regular", "n": 20, "d": 3}]
SWEEPS = {
    "sweep-rad-drop": {"suite": "rad-drop", "seed": 5, "families": FAMILIES,
                       "grid": {"trials": 2, "r": [1, 2], "method": "both", "p": 0.3}},
    "sweep-local-global": {"suite": "local-global", "seed": 5, "families": FAMILIES,
                           "grid": {"trials": 2, "r": None, "r_max": 2}},
    "sweep-interlace": {"suite": "interlace", "seed": 5, "families": FAMILIES,
                        "grid": {"trials": 2, "u_size": [2, 4]}},
    "sweep-finite-param": {"suite": "finite-param", "seed": 5, "families": FAMILIES[:1],
                           "grid": {"trials": 2, "theta": 0.3, "r": 1, "s": [2, 3]}},
    "sweep-second-eig": SECOND_EIG_CFG,
    "tolerance-finite-param": {"suite": "finite-param", "seed": 5, "families": FAMILIES[:1],
                               "grid": {"trials": 2, "theta": 0.3, "r": 1, "s": [2, 3]},
                               "tolerances": {"finite-param": -1000.0}},
    "tolerance-second-eig": {**SECOND_EIG_CFG, "tolerances": {"second-eig": 0}},
}


def runs() -> list[tuple[str, list[list[str]]]]:
    """(directory name, argv lists run there in order) for every run."""
    out = [("determinism", DETERMINISM_BATTERY), ("battery", BATTERY)]
    out += [(f"pinned-{i}", [argv]) for i, (argv, *_) in enumerate(PINNED)]
    out += [(name, [["sweep", "--config", name + ".json"]]) for name in SWEEPS]
    return out


def write_outputs(outdir: Path) -> None:
    outdir.mkdir(parents=True)
    codes = []
    for name, argvs in runs():
        root = outdir / name
        root.mkdir()
        os.chdir(root)
        sweep_config(root)  # cfg.json, read by the pinned sweeps
        (root / "second-eig.json").write_text(json.dumps(SECOND_EIG_CFG))
        if name in SWEEPS:
            (root / (name + ".json")).write_text(json.dumps(SWEEPS[name]))
        codes += [f"{name} {main(list(argv))} {' '.join(argv)}\n" for argv in argvs]
    (outdir / "exit_codes.txt").write_text("".join(codes))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_outputs(Path(sys.argv[1]).resolve())
