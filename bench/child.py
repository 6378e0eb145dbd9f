"""Fresh-interpreter child of the benchmark, for setup_s and peak_rss_mb.

Usage: ``python3 bench/child.py '<json list of argv lists>'`` with
``PYTHONPATH`` naming the checkout's ``src`` and ``FOCKSIM_OUT_DIR`` set.
Imports ``focksim.cli``, runs the invocations one after another and prints
one JSON line: their exit codes and this process's peak resident set size.

The peak is ``VmHWM`` of ``/proc/self/status``, not ``ru_maxrss``: Linux
carries ``ru_maxrss`` across ``execve``, so a child would report at least
the parent's resident size at the time of the fork.
"""

import contextlib
import io
import json
import sys

from focksim.cli import main

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(main(argv))
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"codes": codes, "peak_rss_kb": hwm_kb}))
