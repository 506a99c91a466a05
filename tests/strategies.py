"""Hypothesis strategies shared by the test modules."""

from dataclasses import astuple

import numpy as np
from hypothesis import strategies as st

from qds_onedecoy.channel import PulseConfig
from qds_onedecoy.optimizer import SearchSpace

SPACE = SearchSpace()
#: A source setting drawn from the default search box, nu below mu.
settings_in_space = st.builds(
    lambda mu, nu_share, p_mu, p_z_tx, p_z_rx: PulseConfig(
        mu=mu, nu=SPACE.nu[0] + nu_share * (min(SPACE.nu[1], mu) - SPACE.nu[0]),
        p_mu=p_mu, p_z_tx=p_z_tx, p_z_rx=p_z_rx, n_pulses=2e12,
    ),
    st.floats(*SPACE.mu), st.floats(0.0, 0.999), st.floats(*SPACE.p_mu),
    st.floats(*SPACE.p_z_tx), st.floats(*SPACE.p_z_rx),
)


def stack_of(pcs):
    """``PulseConfig.stack`` of the configs ``pcs``, one row each."""
    return PulseConfig.stack(np.array([astuple(pc) for pc in pcs]))
