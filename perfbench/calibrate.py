"""Calibration kernel: fixed pure-Python work timed next to every measurement.

On the 2-vCPU virtual machine this benchmark was written on, the same
call takes anywhere from 1x to 1.7x its fastest time, in phases lasting
seconds to minutes, and CPU time follows wall time: the host runs other
tenants.  Twenty-second medians of raw wall time varied by 22-28%
(quartile distance over median) from window to window, while the median
ratio of each call to this kernel, timed next to it, varied by 2-3%.

So every time the benchmark reports is scaled to a fixed machine speed:
``seconds * REFERENCE_S / kernel seconds``, where the kernel seconds are
the mean of the kernel runs just before and just after the measurement.
``REFERENCE_S`` is the kernel's median time on that machine, so the
reported values read as seconds on it.  The kernel does the kind of work
the program does (merging sorted term lists, dict updates on small
ints) and shares no code with it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0133


def _kernel() -> int:
    # the data come from an inline generator: importing ``random`` here
    # would take its cost out of the timed import of the program
    x = 7
    cols = []
    for _ in range(300):
        col = set()
        while len(col) < 40:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            col.add(x % 4000)
        cols.append(sorted(col))
    acc: dict[int, int] = {}
    for k in range(1, len(cols)):
        a, b = cols[k - 1], cols[k]
        i = j = 0
        out = []
        while i < len(a) and j < len(b):
            if a[i] < b[j]:
                out.append(a[i])
                i += 1
            elif a[i] > b[j]:
                out.append(b[j])
                j += 1
            else:
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        for x in out:
            acc[x] = acc.get(x, 0) + 1
        cols[k] = out[:60]
    return len(acc)


def kernel_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
