"""Make the benchmark's modules (``perfbench/*.py``) importable."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent
if str(_BENCH) not in sys.path:
    sys.path.insert(0, str(_BENCH))
