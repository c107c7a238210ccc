"""Deterministic work splitting.

Heavy loops are split into chunks that do not depend on the thread count:
fixed-size ranges of words. They split the word batches of user maps and
the contraction sups; the closed-form trace route walks each order's words
once, in blocks, and maps one item per order. Per-chunk partial results
are combined in chunk index order, or exactly. Outputs are therefore
bit-identical whether a job runs on one thread or many.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

# Fixed chunk length for word enumeration; must never depend on threads.
WORD_CHUNK = 1 << 16


def chunk_ranges(total, chunk=WORD_CHUNK):
    """Half-open index ranges [(0,c), (c,2c), ...] covering range(total)."""
    return [(lo, min(lo + chunk, total)) for lo in range(0, max(total, 0), chunk)]


def map_ordered(fn, items, threads=1):
    """Apply fn to each item, returning results in input order.

    threads <= 1, or a single item, runs inline, so a caller that maps one
    chunk starts no thread pool; otherwise a thread pool is used. The result
    order (and therefore any subsequent reduction) is identical either way.
    """
    if threads is None or threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))
