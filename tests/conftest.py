import time
from pathlib import Path

import pytest
from hypothesis import settings

from edgewatch.pipeline import PipelineConfig, run_timeline
from edgewatch.synth import SynthConfig, generate_trace, load_synth_config

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def six_node_config() -> SynthConfig:
    """Six well-separated edge-nodes; RTT medians anchored at 15 vs 95 ms."""
    return load_synth_config(CONFIGS / "six_node.ini")


def event_trace_config() -> SynthConfig:
    """30-day trace: a 7-node AMS group dies on day 10, a 5-node FRA group's
    paths shift +80 ms on day 18 (the README's event demo)."""
    return load_synth_config(CONFIGS / "event.ini")


EVENT_DEATH_DAY = 10
EVENT_SHIFT_DAY = 18


@pytest.fixture(scope="session")
def six_node_trace():
    return generate_trace(six_node_config())


@pytest.fixture(scope="session")
def event_trace():
    return generate_trace(event_trace_config())


@pytest.fixture(scope="session")
def event_timeline(event_trace):
    """Daily-window timeline over the event trace, with its wall-clock cost."""
    records, _ = event_trace
    config = PipelineConfig(window_days=1.0, step_days=1.0)
    start = time.perf_counter()
    result = run_timeline(config, records)
    elapsed = time.perf_counter() - start
    return result, records, config, elapsed
