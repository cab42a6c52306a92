"""Fresh-process probe: set-up time, and optionally one run's peak memory.

    python3 bench/fresh.py SRC_DIR CONFIG [facil CLI arguments ...]

Times importing ``facil`` from SRC_DIR and building the config with
``facil.cli.parse_config``.  When CLI arguments follow, it then runs
``facil.cli.main`` on them once.  Prints one JSON line with the set-up time,
the exit code (null if it raised) and the process's peak resident memory in MB.
"""

import json
import resource
import sys
import time
import traceback

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import facil.cli  # noqa: E402

facil.cli.parse_config(sys.argv[2])
setup_s = time.perf_counter() - start

code = None
if len(sys.argv) > 3:
    try:
        code = facil.cli.main(sys.argv[3:])
    except Exception:  # reported as a failed run, not a failed probe
        traceback.print_exc()
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"setup_s": setup_s, "exit_code": code, "peak_rss_mb": peak_kb / 1024}))
