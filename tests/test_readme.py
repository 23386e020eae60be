import re
from pathlib import Path

from forecast_ensembles import SyntheticSpec, generate_synthetic, write_table

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    table = generate_synthetic(SyntheticSpec(forecasters=8, questions=12, seed=4))
    write_table(table, tmp_path / "forecasts.csv", tmp_path / "outcomes.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
