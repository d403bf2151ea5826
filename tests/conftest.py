import numpy as np
import pytest

from gatesafe.barrier import SafetyParams
from gatesafe.config import Config
from gatesafe.field import build_field, inflate_field, quantize_inflation
from gatesafe.geometry import GateGeometry
from gatesafe.sim import SimEnv


@pytest.fixture(scope="session")
def default_gate() -> GateGeometry:
    return GateGeometry()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def default_env(default_gate) -> SimEnv:
    """Full-extent fields plus default parameters, built once per session."""
    spec = Config().grid_spec()
    params = SafetyParams()
    nominal = build_field(default_gate, spec)
    inflated = inflate_field(nominal, quantize_inflation(params.dv, spec.resolution))
    return SimEnv(
        gate=default_gate,
        nominal_field=nominal,
        inflated_field=inflated,
        params=params,
    )
