"""Sample helpers shared by the test modules."""

from wkit.sweeps import pair_stacks


def random_pairs(count, seed=0):
    """The float sweep sample as a list of (u, v) pairs in sample order:
    pair j of a chunk is row j // 7 of the stacks of dimension 2 + j % 7."""
    pairs = []
    for chunk in pair_stacks(count, seed):
        stacks = [(u.copy(), v.copy()) for u, v in chunk]
        for j in range(sum(len(u) for u, _ in stacks)):
            u, v = stacks[j % len(stacks)]
            pairs.append((u[j // len(stacks)], v[j // len(stacks)]))
    return pairs
