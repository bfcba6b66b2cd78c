"""Tests of the benchmark's own code: span arithmetic, the census writer and
a tiny end-to-end run of both modes.

    python3 -m pytest -q perfbench/tests
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import census  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from popsynth import losses, training  # noqa: E402
from popsynth.schema import encode_onehot, load_microdata, load_schema, restructure  # noqa: E402

TINY = replace(run.WORKLOADS["desk"], name="tiny", households=150, tract_households=40,
               pretrain_epochs=2, finetune_epochs=8, wide_rows=300)
TINY_CENSUS = replace(run.WORKLOADS["census"], name="tiny_census", households=300,
                      tract_households=50, pretrain_epochs=1, finetune_epochs=3, wide_rows=300)


def test_self_time_subtracts_children():
    # the shape the recorder writes: children disjoint and inside their parent
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 4.5, 9.0, 0],
        ["a", 11.0, 12.0, -1],
    ]
    got = spans.self_times(tree)
    assert got["root"] == (1, pytest.approx(10.0 - 3.0 - 4.5))
    assert got["a"] == (2, pytest.approx(2.0 + 1.0))
    assert got["a1"] == (1, pytest.approx(1.0))
    assert got["b"] == (1, pytest.approx(4.5))


def test_set_up_spans_count_only_for_oracle_names():
    rec = spans.SpanRecorder()
    rec.spans[:] = [["schema.marginal_counts", 0.0, 1.0, -1], ["schema.marginal_counts", 2.0, 4.0, -1]]
    setup = [["oracle.sample_records", 0.0, 5.0, -1], ["schema.marginal_counts", 5.0, 9.0, -1]]
    got = run.layer_metrics(rec, setup)
    assert got["schema.marginal_counts.calls"] == 2
    assert got["schema.marginal_counts.self_s"] == pytest.approx(3.0)
    assert got["oracle.sample_records.calls"] == 1
    assert got["oracle.sample_records.self_s"] == pytest.approx(5.0)


def test_recorder_nests_spans_and_restores_every_binding():
    orig_dbce = losses.dbce
    rec = spans.SpanRecorder()
    with spans.installed(rec):
        assert training.dbce is losses.dbce is not orig_dbce
        with rec.span("outer"):
            losses.dbce(np.full((3, 4), 0.5), np.eye(4)[:2], 0.5)
    assert training.dbce is losses.dbce is orig_dbce
    names = [s[0] for s in rec.spans]
    assert names[:2] == ["outer", "losses.dbce"]
    assert {"losses.pairwise_mean_bce", "losses.softmin"} <= set(names)
    by_name = {s[0]: s for s in rec.spans}
    assert by_name["losses.dbce"][3] == 0
    assert rec.counts["losses.dbce.pairs"] == 6


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_census_writer_is_deterministic_in_its_seed(tmp_path):
    census.write_census(tmp_path / "a", 5, households=300, tract_households=50)
    census.write_census(tmp_path / "b", 5, households=300, tract_households=50)
    census.write_census(tmp_path / "c", 6, households=300, tract_households=50)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["households.csv"] != _files(tmp_path / "c")["households.csv"]

    d = tmp_path / "a"
    schema = load_schema(d / "schema.json")
    x = encode_onehot(restructure(load_microdata(d / "households.csv", d / "persons.csv", schema), schema))
    assert len(x.groups) == 42 and x.d == 360
    assert len(np.unique(x.values, axis=0)) / x.n_rows > 0.95


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(tmp_path, trace):
    res = run.benchmark(TINY, 3, 0.0, trace, tmp_path)
    assert [name for name, ok in res["ops"] if not ok] == []
    metrics = run.summarize(res, trace)
    names = [m["name"] for m in run.read_spec()["per_layer" if trace else "end_to_end"]]
    assert sorted(metrics) == sorted(names)
    assert all(np.isfinite(m["value"]) for m in metrics.values())
    if trace:
        assert metrics["losses.dbce.calls"]["value"] == TINY.finetune_epochs + 1
        assert metrics["training.Lion.step.scalars"]["value"] > 0
        assert metrics["oracle.sample_records.calls"]["value"] == 1
    else:
        assert metrics["pipeline_s"]["value"] > metrics["pretrain_s"]["value"] > 0


def test_tiny_census_traced_run_counts_the_chain_calls(tmp_path):
    res = run.benchmark(TINY_CENSUS, 3, 0.0, True, tmp_path)
    assert [name for name, ok in res["ops"] if not ok] == []
    metrics = run.summarize(res, True)
    # marginal_report calls marginal_counts on both tables; the census
    # writer's single call during set-up is not part of the chain
    reports = metrics["evaluation.marginal_report.calls"]["value"]
    assert reports == 2
    assert metrics["schema.marginal_counts.calls"]["value"] >= 2 * reports
    assert metrics["oracle.sample_records.calls"]["value"] == 0
    assert metrics["data.unique_row_ratio"]["value"] > 0.95
