"""The production LSTM step called the way ``oracles.lstm_step_scalar`` is,
so the two can be compared on the same arguments."""

import numpy as np

from swarmcast.layers import GATES, _lstm_cell_cache


def lstm_step_fused(x, prev_cell, prev_hidden, w):
    """``layers._lstm_cell_cache`` on ``w`` (gate name -> (weight rows over
    [hidden, input], bias)) stacked in ``GATES`` order; x and the previous
    state are arrays. Returns (hidden, cell, gates), gates being the four
    activations (4 * units,)."""
    units = len(prev_hidden)
    gate_w = np.concatenate([w[gate][0] for gate in GATES])
    gate_b = np.concatenate([w[gate][1] for gate in GATES])
    cell, hidden, (_, gates, _, _) = _lstm_cell_cache(
        gate_w[:, units:] @ x + gate_b, prev_cell, prev_hidden, gate_w[:, :units]
    )
    return hidden, cell, gates
