"""Print the reference digests of the CLI outputs as JSON.

Run from the root of a checkout at the commit whose outputs are the
reference, and save the output as perfbench/reference.json:

    python3 perfbench/make_reference.py > perfbench/reference.json
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402

# README's worked medical-test numbers; each must start a line of the report.
REPORT_VALUES = {
    "jeffrey_prior_validity": "19941/64000",
    "pearl_prior_validity": "1143/4000",
    "jeffrey_posterior": "431/5865|d>",
    "pearl_posterior": "27/635|d>",
}


def main() -> None:
    sizes = json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]["reproduce"]["sizes"]
    workdir = BENCH_DIR / "out" / "make-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outputs = workloads.cli_outputs(workdir, sizes["imax"], sizes["jmax"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {
        "about": "sha256 of `report medical` and of each 60x60 `grid` CSV, with the values the report must show",
        "sha256": {name: workloads.sha256(data) for name, data in outputs.items()},
        "report_values": REPORT_VALUES,
        "properties": len(workloads.lib("properties").resolve_suite("all")),
    }
    print(json.dumps(reference, indent=1))


if __name__ == "__main__":
    main()
