"""Validation of the integrator settings."""

import pytest

from dirac_soliton.coupled_dynamics import SimulationConfig


def test_negative_field_stride_is_refused():
    # (idx // stride) % -1 == 0 holds for every sample, so a negative
    # stride would silently store the field at each one
    with pytest.raises(ValueError, match="field_stride"):
        SimulationConfig(dt=0.1, t_final=0.2, sample_every=0.1,
                         field_stride=-1)
