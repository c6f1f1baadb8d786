"""Starts benchmark commands from a small process and times them.

Reads one JSON request per stdin line (``argv``, ``stdout``, ``stderr``
paths), runs the command to completion, and answers with one JSON line:
exit code, wall time, and the child's peak RSS from its own ``wait4``
rusage.  Spawning from this process rather than from the benchmark matters:
at exec, Linux folds the pre-exec image, a copy of the spawning process,
into the child's ``ru_maxrss``, so a child of the benchmark process, which
grows while it checks outputs, would report the benchmark's size instead of
its own.  The process exits when stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        reply = {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
                 "rss_mb": usage.ru_maxrss / 1024}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
