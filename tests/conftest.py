from __future__ import annotations

import faulthandler
import os
import sys
from pathlib import Path

import pytest

from ovmkit import corpus_path
from ovmkit.documents import parse_layered_model, parse_variability_model

GOLDEN_DIR = Path(__file__).parent / "golden"

# Seconds one test may take before the run is stopped with every thread's
# stack and exit code 1, so a test that hangs fails the run instead of
# holding it. The slowest test, test_random_models_up_to_2000_vps, took
# 10.6 to 12.9 s in whole-suite runs (`pytest --durations`, Python 3.11.7,
# 2 cores; the most under `-X dev -W error`, as CI runs the suite), so the
# limit leaves it about nine times its time.
LIMIT = 120
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy made before output capture starts, so the stacks reach the terminal.
    config.stash[STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def _stop_a_hung_test(request):
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def engine_layered_path() -> Path:
    return corpus_path("engine-flat-layered.json")


@pytest.fixture(scope="session")
def engine_plm_path() -> Path:
    return corpus_path("engine-flat-plm.json")


@pytest.fixture(scope="session")
def hierarchical_path() -> Path:
    return corpus_path("engine-hierarchical-layered.json")


@pytest.fixture(scope="session")
def logistics_path() -> Path:
    return corpus_path("logistics-vm.json")


@pytest.fixture(scope="session")
def engine_layered(engine_layered_path):
    model, products = parse_layered_model(engine_layered_path.read_bytes())
    assert products is None
    return model


@pytest.fixture(scope="session")
def engine_plm(engine_plm_path):
    return parse_variability_model(engine_plm_path.read_bytes())


@pytest.fixture(scope="session")
def hierarchical_layered(hierarchical_path):
    model, _ = parse_layered_model(hierarchical_path.read_bytes())
    return model


@pytest.fixture(scope="session")
def logistics_plm(logistics_path):
    return parse_variability_model(logistics_path.read_bytes())
