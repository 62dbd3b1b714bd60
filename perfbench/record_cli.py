"""Record the expected output of the README's CLI commands.

    python3 perfbench/record_cli.py

writes ``perfbench/cli_expected.json``: for each command its arguments, exit
code and parsed JSON output, as produced by the source tree next to this
directory. The ``ring_gap`` workload compares every CLI run against this
file, so re-record it only on purpose, when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from locrel import cli  # noqa: E402

COMMANDS = [
    "structure check --input {data}/tridiag3.json",
    "structure realize --input {data}/chain3_phi_u_realize.json",
    "relative check --input {data}/ring4_relative_row.json",
    "relative decompose --input {data}/ring4_relative_row.json",
    "sls closed-loops --input {data}/chain3_plant_controller.json",
    "sls check --input {data}/chain3_plant_controller.json",
    "sls recover --input {data}/chain3_closed_loops.json",
    "sls implement --input {data}/chain3_closed_loops.json",
    "consensus feasibility --n 8 --b 1 --measure ave",
    "consensus h2 --n 4 --gamma 1",
    "consensus h2 --n 4 --gamma 1 --controller ka --a -100",
    "consensus gap-demo --n 8 --b 1 --gamma 1",
    "spatial feasibility --d 2 --n 5 --b 1",
    "spatial h2 --input {data}/kernel_ring8.json",
]


def main():
    cases = []
    for command in COMMANDS:
        argv = command.split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([arg.replace("{data}", str(HERE / "data")) for arg in argv])
        cases.append({"argv": argv, "exit": code, "stdout": json.loads(out.getvalue())})
    (HERE / "cli_expected.json").write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
