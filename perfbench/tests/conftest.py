import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"
for path in (str(SRC), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)
