"""Stream helpers shared by the tests.

The package reads and writes streams in blocks and has no whole-stream
merge: merged joins the merged blocks that write_events writes, and
from_merged splits a merged sequence by brute force.  short_blocks makes
generation draw blocks of a few events, and lets a drawn stream's shards
be one block long; handed counts the events a drawn stream's blocks hand
across their edges.  reference_routes redraws the interferometer routes
that franson.apply_umi gives a stream, which carries times only.
"""

from unittest import mock

import numpy as np

from diskspdc import events
from diskspdc.events import EventStream


def merged(stream):
    """(channels, timestamps_ps) of a stream, by time and then channel:
    the stream's merged blocks (EventStream._merged_blocks) joined."""
    blocks = [(c[o], t[o]) for c, t, o in stream._merged_blocks()]
    return (np.concatenate([np.empty(0, dtype=np.uint8)]
                           + [c for c, _ in blocks]),
            np.concatenate([np.empty(0, dtype=np.int64)]
                           + [t for _, t in blocks]))


def from_merged(channels, timestamps_ps, duration_ps):
    """The EventStream of a time-sorted (channels, timestamps_ps)
    sequence: one array per channel that has events."""
    channels = np.asarray(channels, dtype=np.uint8)
    times = np.asarray(timestamps_ps, dtype=np.int64)
    return EventStream({int(c): times[channels == c]
                        for c in np.unique(channels)}, duration_ps)


def short_blocks(block_events, min_block_ps):
    """Generation blocks far shorter than the real floor of 2^30 ps, and
    a drawn stream's shards as short as one block."""
    return mock.patch.multiple(events, _BLOCK_EVENTS=block_events,
                               _MIN_BLOCK_PS=min_block_ps, _SHARD_BLOCKS=1)


def handed(model, duration_s, seed):
    """(down, up): how many events the blocks of a drawn stream hand to
    the block before them and to the block after them, under the block
    sizing in force."""
    duration_ps, block, n_blocks = events._plan(model, duration_s)
    draws = events._Draws.of(model)
    down = up = 0
    for k in range(n_blocks):
        _, parts = events._handed(draws, seed, k, block, duration_ps)
        for before, _, after in parts.values():
            down += len(before)
            up += len(after)
    return down, up


def reference_routes(stream, config, seed):
    """Per channel, the long-arm mask of franson.apply_umi's draw on
    stream: one uniform per event from PCG64(seed), channel by channel in
    ascending order, long where it reaches t_S / (t_S + t_L)."""
    t_s, t_l = config.arm_transmissions
    rng = np.random.Generator(np.random.PCG64(seed))
    return {c: rng.random(len(stream.times[c])) >= t_s / (t_s + t_l)
            for c in sorted(stream.times)}
