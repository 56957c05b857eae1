"""The sweep CSV round trip as a property: every summary coopsim can write
reads back equal, field by field, and writes back the same bytes."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.cli import read_sweep_csv, write_sweep_csv
from coopsim.dynamics import DETERMINISTIC, STOCHASTIC, UpdateRuleConfig
from coopsim.engine import RunConfig, SweepSummary
from coopsim.game import PayoffParams
from coopsim.interference import NEB, NI, PARAMS, POP, InterferenceConfig
from coopsim.network import MODELS, NetworkConfig


def nine_digits(floats):
    """floats as the CSV writes them: 9 significant digits hold each value
    exactly, so it reads back equal."""
    return floats.map(lambda x: float(format(x, ".9g")))


_FRACTION = st.sampled_from([0.0, 1.0]) | nine_digits(st.floats(0, 1))
_STATISTIC = _FRACTION | nine_digits(st.floats(0, 1e15))
_THRESHOLD = st.sampled_from([0, 1]) | _FRACTION


@st.composite
def summaries(draw):
    """A sweep point: any scheme subset with int or float values for its
    parameters (the others unset), either rule (K empty or set), and
    statistics at 0, 1 or large."""
    schemes = draw(st.lists(st.sampled_from([POP, NEB, NI]), unique=True))
    params = {}
    if schemes:
        params["theta"] = draw(st.integers(1, 999_999_999)
                               | nine_digits(st.floats(1e-6, 1e6)))
        for scheme, key in zip((POP, NEB, NI), PARAMS[1:]):
            if scheme in schemes:
                params[key] = draw(_THRESHOLD)
    if draw(st.booleans()):
        update = UpdateRuleConfig(STOCHASTIC, K=draw(nine_digits(st.floats(1e-3, 10))))
    else:
        update = UpdateRuleConfig(DETERMINISTIC)
    config = RunConfig(
        network=NetworkConfig(draw(st.sampled_from(MODELS)), draw(st.integers(3, 10**6))),
        payoff=PayoffParams(draw(nine_digits(st.floats(1, 2)).filter(lambda b: b > 1))),
        update=update, interference=InterferenceConfig(schemes, **params))
    return SweepSummary(config=config, replicates=draw(st.integers(1, 10**6)),
                        coop_mean=draw(_FRACTION), coop_std=draw(_STATISTIC),
                        cost_mean=draw(_STATISTIC), cost_std=draw(_STATISTIC),
                        master_seed=draw(st.integers(0, 2**63)))


@settings(max_examples=200, deadline=None)
@given(written=st.lists(summaries(), min_size=1, max_size=4))
def test_sweep_csv_round_trip(written):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_sweep_csv(written, first)
        read = read_sweep_csv(first)
        write_sweep_csv(read, second)
        assert second.read_bytes() == first.read_bytes()
    # Dataclass equality compares every field, config included: each
    # column's value reads back equal to the one written.
    assert read == written
