#!/usr/bin/env python3
"""End-to-end verification run from a source checkout: the same as
``hypertree-spectra verify`` with the same arguments, output and exit codes.

Usage:
    python scripts/run_verification.py --k 3 --max-m 5 --bounds
    python scripts/run_verification.py --k 4 --n 13 --export census.jsonl
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypertree_spectra import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(cli.main(["verify", *sys.argv[1:]]))
