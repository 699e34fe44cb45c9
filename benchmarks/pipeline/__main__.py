"""``python3 -m benchmarks.pipeline`` from the repository root."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: {_ROOT / 'src' / 'repro'} not found; the benchmark builds nothing "
             "and needs the repository's sources beside it")
# No install step: the checkout's own sources, ahead of any installed copy.
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.pipeline.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
