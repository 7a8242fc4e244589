"""Host-speed probes, and the scaling of measured times to a nominal host.

On a machine whose cores are shared with other tenants, the speed of one
process swings by up to 2x within seconds. A fixed piece of work that does
not touch liembs, timed right next to each measured operation, tracks those
swings; dividing by it leaves the cost of the code under test.

* ``compute`` — small numpy products and a pure-Python loop, run in the
  measuring process before every timed `integrate()` segment. It scales the
  in-process step times.
* ``spawn`` — a fresh interpreter that imports what ``liembs.cli`` imports
  except liembs itself. It runs right before every CLI command and every
  set-up process, and scales the wall time of that one process.

A scaled time reads as the time on a host where the probe takes its
nominal value. Unscaled times are reported next to it.
"""

import statistics
import subprocess
import sys
import time

COMPUTE_NOMINAL_US = 500.0
COMPUTE_WINDOW = 9
SPAWN_NOMINAL_S = 0.5
SPAWN_CODE = "import argparse, csv, json, numpy, scipy.linalg"


def compute(np):
    """Wall time in µs of fixed numpy and pure-Python work."""
    eye = np.eye(3)
    t = time.perf_counter()
    m = eye
    for _ in range(60):
        m = 0.25 * (m @ m) + 0.5 * eye
    acc = 0
    for i in range(2000):
        acc += i * i
    return (time.perf_counter() - t) * 1e6


def spawn(timeout):
    """Wall time in s of a fresh interpreter importing numpy and scipy.linalg."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True, capture_output=True, timeout=timeout)
    return time.perf_counter() - t


def scales(probes, nominal, window):
    """Per probe: nominal over the median of the `window` probes around it."""
    half = window // 2
    return [
        nominal / statistics.median(probes[max(0, i - half) : i + half + 1])
        for i in range(len(probes))
    ]
