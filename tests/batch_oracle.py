"""Reference exact-length grouping of training pairs.

The pairs are shuffled once with ``rng`` (kept in input order without
one), grouped by source length in ascending order, and each group is cut
into chunks of ``batch_size``, so no batch is padded. On a corpus of one
source length ``training.bucket_batches`` must give these batches and leave
the generator in the same state.
"""


def exact_length_indices(pairs, batch_size: int, rng=None):
    """Indices of ``pairs`` in exact-length batches, in batch order."""
    order = list(range(len(pairs)))
    if rng is not None:
        rng.shuffle(order)
    buckets = {}
    for i in order:
        buckets.setdefault(len(pairs[i][0].tokens), []).append(i)
    return [group[i:i + batch_size]
            for group in (buckets[length] for length in sorted(buckets))
            for i in range(0, len(group), batch_size)]
