"""Time one set-up in a fresh interpreter: import gldp, then load every
instance file of a directory through ``gldp.load_instance``.

Usage: ``python3 setup_probe.py <src dir> <instance dir>``; prints the
seconds as its last line.  run.py starts it several times and reports the
median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

src, inst_dir = sys.argv[1], Path(sys.argv[2])
sys.path.insert(0, src)
t0 = time.perf_counter()
import gldp  # noqa: E402

for path in sorted(inst_dir.glob("*.json")):
    gldp.load_instance(path)
print(time.perf_counter() - t0)
