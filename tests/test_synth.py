"""The synthetic corpora have the structure their docstrings give them."""

import numpy as np

from synth import chickenpox_like, diffusion_like


def edge_correlations(signal):
    """Mean correlation of the node traces of linked pairs, and of unlinked ones."""
    corr = np.corrcoef(signal.features[:, :, 0].T)
    linked = np.zeros(corr.shape, dtype=bool)
    linked[tuple(np.array(signal.edges).T)] = True
    unlinked = ~linked & ~np.eye(len(corr), dtype=bool)
    return corr[linked].mean(), corr[unlinked].mean()


def test_diffusion_traces_correlate_along_edges():
    signal = diffusion_like()
    assert (signal.num_nodes, signal.num_snapshots, signal.num_channels) == (20, 520, 1)
    linked, unlinked = edge_correlations(signal)
    assert linked > unlinked + 0.05
    # unlike the headline corpus, whose nodes each keep a trace of their own
    linked, unlinked = edge_correlations(chickenpox_like())
    assert abs(linked - unlinked) < 0.05


def test_diffusion_nodes_share_one_marginal():
    features = diffusion_like().features[:, :, 0]
    assert np.ptp(features.mean(axis=0)) < 0.03
    assert np.ptp(features.std(axis=0)) < 0.01
