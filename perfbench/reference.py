"""Host-speed references for the benchmark's time figures.

The benchmark runs on shared machines whose speed swings by up to 2x,
in episodes that last from a second to minutes, far more than the
changes it must resolve.  So the benchmark times a fixed piece of
reference work next to everything it measures and scales each measured
time by a nominal time over the references on either side of it: the
figures read as seconds on a host on which the reference takes its
nominal time.  Both references use only the standard library, so no
change to the program moves them.

* The *slice* (``NOMINAL_S``) builds, levelizes, sorts and serialises a
  random netlist-like DAG of dicts, lists and strings: the same kind of
  work as a trial's, so contention slows both alike.  A grid pass times
  a slice after every ~0.2 s of trials (``grid_pass.py``).
* The *start* (``START_NOMINAL_S``) is a fresh interpreter importing a
  fixed set of standard-library modules: the same kind of work as the
  program's set-up, which ``run.py`` brackets with it.  The slice does
  not track set-up: on a 2-core shared host it flipped between ~6 and
  ~10 ms within seconds while set-up moved about half as much, so set-up
  over slice wandered by 17 % (CV) against 8 % for set-up over start.

    python3 perfbench/reference.py    # prints a slice and a start time
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

NOMINAL_S = 0.01
NODES = 2_000

START_NOMINAL_S = 0.1
START_IMPORTS = (
    "import argparse, collections, dataclasses, functools, hashlib, heapq, "
    "importlib, itertools, json, math, pathlib, random, statistics, "
    "subprocess, traceback, typing, weakref"
)
#: A start normally takes a tenth of a second; this only stops a hung one.
START_TIMEOUT_S = 60


def reference_work() -> int:
    """Returns a checksum so that no step can be skipped."""
    rng = random.Random(2016)
    fanin = {}
    for i in range(NODES):
        fanin[f"n{i}"] = [f"n{rng.randrange(i)}" for _ in range(2)] if i else []
    level = {}
    for name, sources in fanin.items():
        level[name] = 1 + max((level[s] for s in sources), default=0)
    order = sorted(fanin, key=lambda name: (level[name], name))
    text = json.dumps({name: fanin[name] for name in order[: NODES // 4]})
    return len(text) + sum(level.values())


def slice_seconds() -> float:
    """Wall time of one slice."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def start_seconds() -> float:
    """Wall time of one fresh interpreter importing ``START_IMPORTS``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", START_IMPORTS],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        check=True,
        capture_output=True,
        timeout=START_TIMEOUT_S,
    )
    return time.perf_counter() - start


if __name__ == "__main__":
    print(slice_seconds(), start_seconds())
