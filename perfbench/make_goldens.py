#!/usr/bin/env python3
"""Rewrite perfbench/goldens from the program as it is, at the canonical seed.

Usage (from the root of a checkout): python3 perfbench/make_goldens.py

Run it only where a change is meant to alter the written solutions, and
say so with the change: the goldens are what every benchmark run is
checked against.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.write_goldens(str(ROOT), os.path.join(ROOT, "perfbench", "out", "goldens"))
