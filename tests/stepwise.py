"""evolve's reference: a chain run one validated Distribution at a time,
through the public apply_channel and relative_entropy only, so that it
shares no step loop with evolve or the monotonicity sweep."""

import numpy as np

from thermobit import Channel, Distribution, apply_channel, relative_entropy
from thermobit.markov import _max_positive_jump


def step_by_step(p0, channel, steps, reference):
    """evolve as a chain of validated Distributions, one relative_entropy each."""
    dists = [p0]
    for _ in range(steps):
        dists.append(apply_channel(dists[-1], channel))
    d_nats = [relative_entropy(p, reference).nats for p in dists]
    return np.array([p.probs for p in dists]), np.array(d_nats)


def first_repeat(probs):
    """The first step t with p_t == p_(t-1) bit for bit, or None."""
    for t in range(1, len(probs)):
        if probs[t].tobytes() == probs[t - 1].tobytes():
            return t
    return None


def settled_and_rise(p0, matrix, steps, reference):
    """(settled, largest rise) of a chain's step_by_step run from checked
    arrays: its first row equal to the row before (steps + 1 if none) and
    _max_positive_jump of its D values."""
    probs, d_nats = step_by_step(Distribution(p0), Channel(matrix), steps,
                                 Distribution(reference))
    return first_repeat(probs) or steps + 1, _max_positive_jump(d_nats)
