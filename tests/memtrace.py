"""The peak of the memory a call allocates, as tracemalloc counts it.

tracemalloc counts the bytes of each allocation Python and numpy make,
not the pages the allocator holds, so for one interpreter and numpy the
figure is the same from run to run, whatever the heap held before.
"""

import tracemalloc


def traced_peak_mb(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of its allocations alive at once, in MB)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak / 1e6
