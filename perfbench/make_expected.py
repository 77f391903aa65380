"""Regenerate ``expected.json``: the homology table and bracket of every
benchmark diagram.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_expected.py

The committed file was produced by the program itself at the commit that
introduced the benchmark; regenerate it only when a table is meant to
change, since the benchmark counts every output that differs from it as
failed.
"""

from __future__ import annotations

import json
import os

from artifact import corpus
from artifact.cube import homology_json
from artifact.diagram import parse_pd

from inputs import TORUS_5_1

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    diagrams = dict(corpus.fixture_diagrams())
    diagrams["5_1"] = parse_pd(TORUS_5_1)
    tables = {}
    for name, d in diagrams.items():
        payload = homology_json(d)
        assert payload["euler_check"], name
        tables[name] = {"bracket": payload["bracket"], "homology": payload["homology"]}
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"tables": tables}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
