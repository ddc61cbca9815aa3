"""Start the child processes of the cli-cooking workload.

    python3 perfbench/launcher.py

Reads one JSON value per line of stdin.  An argv list is run to completion
in the launcher's working directory and environment, and answered with one
JSON line, [exit code, stdout, stderr].  ``null`` is answered with the peak
RSS of the largest child so far, in KB.  The launcher exits at end of input.

A process started by fork counts the memory of the process it was forked
from in its peak RSS, even after exec.  Children forked from the benchmark
process, which holds the generated inputs and repeated imports of ``cpl``,
would all report the benchmark's own 30 MB.  The launcher imports only what
it needs, so its peak stays below that of a Python child running ``cpl``.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        if argv is None:
            answer = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=60, check=False)
            answer = [done.returncode, done.stdout, done.stderr]
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
