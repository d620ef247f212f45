"""Run a command and log its exit code, wall time and peak RSS.

Usage::

    python .github/peak_rss.py LIMIT_MB COMMAND...

The peak is the largest resident set of the command and its descendants
(``getrusage(RUSAGE_CHILDREN)``). Exits with the command's code, or 1 when
the command exits 0 but its peak exceeds LIMIT_MB; ``inf`` logs the peak
without a limit.
"""

import resource
import subprocess
import sys
import time

if len(sys.argv) < 3:
    sys.exit(__doc__)
start = time.perf_counter()
rc = subprocess.call(sys.argv[2:])
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"exit {rc}, wall {time.perf_counter() - start:.2f} s, peak RSS {peak:.1f} MB "
      f"(limit {sys.argv[1]})")
sys.exit(rc or peak > float(sys.argv[1]))
