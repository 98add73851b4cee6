"""``tools/mutants.py`` refuses a row whose old text is not found exactly once."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def row(name, old):
    return {"name": name, "file": "src/x.py", "old": old, "new": "x = 0", "command": ["corpus"], "seconds": 1}


def test_an_old_text_must_occur_exactly_once(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "x.py").write_text("a = 1\na = 1\nb = 2\n", encoding="utf-8")
    rows = [row("twice", "a = 1"), row("never", "c = 3"), row("once", "b = 2")]
    assert mutants.misplaced(rows, tmp_path) == [
        "twice: the old text occurs 2 times in src/x.py, not once",
        "never: the old text occurs 0 times in src/x.py, not once",
    ]


def test_a_misplaced_row_exits_1_before_anything_runs(tmp_path, monkeypatch, capsys):
    path = tmp_path / "rows.json"
    bad = dict(row("absent", "text found nowhere in colour.py"), file="src/linkchroma/colour.py")
    path.write_text(json.dumps([bad]), encoding="utf-8")
    monkeypatch.setattr(mutants, "ROWS", path)
    monkeypatch.setattr(mutants, "run_in_copy", lambda *args: refuse_to_run())
    assert mutants.main() == 1
    assert capsys.readouterr().err == "error: absent: the old text occurs 0 times in src/linkchroma/colour.py, not once\n"


def refuse_to_run():
    raise AssertionError("a command ran")
