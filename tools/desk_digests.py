"""Print the sha256 of every CSV the desk-scale study presets write.

    PYTHONPATH=src python tools/desk_digests.py --seed S [--threads T]

Runs every preset in ``scorefim.presets.PRESETS`` at desk scale through
``parse_study_config`` and ``run_study``, as ``scorefim study --preset P
--desk --seed S --threads T`` does, into a temporary directory that is
removed afterwards.  Prints one ``sha256  preset/kind/file`` line per CSV,
sorted by path; manifests carry timings and are left out.  Two checkouts
that print the same lines wrote byte-identical study CSVs.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
from pathlib import Path

from scorefim.presets import PRESETS, preset_config
from scorefim.studies import parse_study_config, run_study


def desk_digests(seed: int, threads: int) -> list[str]:
    """``sha256  preset/kind/file`` for every CSV of every desk preset."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in sorted(PRESETS):
            raw = preset_config(name, desk=True)
            raw["seed"] = seed
            run_study(parse_study_config(raw), out_dir=root / name, threads=threads)
        for path in sorted(root.rglob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="master seed of every preset")
    parser.add_argument("--threads", type=int, default=2, help="worker processes per study")
    args = parser.parse_args(argv)
    print("\n".join(desk_digests(args.seed, args.threads)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
