"""Run one command and print its exit code, wall time and peak RSS as JSON.

    python3 tools/peak_rss.py python -m eclab run --preset exp1-dyck-k4 --out runs/big

The peak RSS is the child's ``ru_maxrss`` as ``wait4`` returns it (the way
perfbench reads it), in MB of 2**20 bytes. Exits with the command's code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv=None):
    cmd = sys.argv[1:] if argv is None else argv
    if not cmd:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "exit_code": code,
        "wall_s": round(time.perf_counter() - start, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
