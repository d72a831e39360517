"""``python -m repro`` entry point.

Off the coin path (docs/CENSUS.md, class ii); run by every CI smoke step
(`python -m repro ...`).
"""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
