"""Deterministic work splitting.

Only loops over plain callables split, into fixed ranges of words that do
not depend on the thread count: user-map word batches and sampled
contraction sups. Per-chunk results are combined in chunk index order, or
exactly, so outputs are bit-identical on one thread or many. Closed-form
words, of Moebius traces and the exact contraction sup, are walked in
blocks on the calling thread; a trace order maps one item, run inline.
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
