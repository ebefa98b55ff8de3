"""Import the program from the checkout's ``src/`` and the benchmark
package from the checkout root, as ``perfbench/run.py`` does."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
