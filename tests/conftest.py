import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from popsynth.schema import (
    HouseholdRecord,
    Schema,
    Variable,
    encode_onehot,
    restructure,
)


def load_module(name, relative):
    """A fresh module of the file at ``relative`` to the repository root."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parents[1] / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_desk_script():
    """A fresh module of scripts/run_desk_pipeline.py, which holds the one
    copy of the desk recipe and chain."""
    return load_module("run_desk_pipeline", "scripts/run_desk_pipeline.py")


def load_census_module():
    """perfbench/census.py, the writer of the benchmark's census-like inputs."""
    return load_module("census", "perfbench/census.py")


def signed(blob: bytes) -> bytes:
    """``blob`` with the trailing sha256 digest that ``vae.write_blob``
    appends, for tests that build or rewrite a model or latent file."""
    return blob + hashlib.sha256(blob).digest()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_tiny_schema():
    return Schema(
        household_vars=(
            Variable("OWN", ("yes", "no")),
            Variable("CAR", ("0", "1", "2+")),
        ),
        person_vars=(
            Variable("AGE", ("kid", "adult", "old", "NA"), has_na=True),
            Variable("JOB", ("none", "part", "full", "NA"), has_na=True),
        ),
        n_window=2,
        sort_keys=("AGE", "JOB"),
        slot_anchor="AGE",
    )


@pytest.fixture
def tiny_schema():
    return make_tiny_schema()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def tiny_records():
    return [
        HouseholdRecord("h1", ("yes", "2+"), [("adult", "full"), ("kid", "none")]),
        HouseholdRecord("h2", ("no", "0"), [("old", "none")]),
        HouseholdRecord("h3", ("no", "1"), [("adult", "part"), ("adult", "full")]),
        HouseholdRecord("h4", ("yes", "0"), [("old", "part")]),
    ]


@pytest.fixture
def tiny_table(tiny_schema, tiny_records):
    return restructure(tiny_records, tiny_schema)


@pytest.fixture
def tiny_encoded(tiny_table):
    return encode_onehot(tiny_table)


def random_simplex_batch(rng, groups, n_rows):
    """Rows with a proper distribution on every column group."""
    d = groups[-1].stop
    x = np.empty((n_rows, d))
    for g in groups:
        block = rng.gamma(1.0, 1.0, size=(n_rows, g.width)) + 1e-3
        x[:, g.start : g.stop] = block / block.sum(axis=1, keepdims=True)
    return x
