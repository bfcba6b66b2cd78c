"""scripts/seed_sweep.py on one seed pair of criterion 9's small recipe."""

import json

from conftest import load_module

SWEEP = load_module("seed_sweep", "scripts/seed_sweep.py")


def test_one_pair_writes_its_scorecard_and_each_criterion(tmp_path, monkeypatch):
    monkeypatch.setattr(SWEEP.desk, "RECIPE", SWEEP.desk.SMALL_RECIPE)
    out = tmp_path / "sweep.json"
    assert SWEEP.main(["--pairs", "1", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    [pair] = got["pairs"]
    assert (pair["pretrain_seed"], pair["finetune_seed"]) == (21, 7)
    assert pair["seconds"] > 0 and pair["C5"]["decoder_intact"] is True
    assert set(got["criteria"]) == {"C4", "C5", "C6", "C7"}
    for key, entry in got["criteria"].items():
        assert entry["passes"] == int(pair[key]["pass"])
        # the median of one pair is that pair's number
        assert entry["median"] == {k: v for k, v in pair[key].items() if isinstance(v, float)}
