"""scripts/csv_moves.py: the exit status and report that seeded-CSV comparisons rest on."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "csv_moves.py"
_spec = importlib.util.spec_from_file_location("csv_moves", SCRIPT)
csv_moves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_moves)

ROUNDS = "t,time_cum,accuracy\n0,60.0,0.25\n1,120.0,0.5\n2,180.0,0.625\n"
MERGED = "scheduler,seed,t,time_cum,accuracy\nvrvfl,1,0,60.0,0.25\nscheme1,1,0,60.0,0.125\n"


def make_tree(root, rounds=ROUNDS, merged=MERGED):
    (root / "default").mkdir(parents=True)
    (root / "default" / "rounds_vrvfl_seed1.csv").write_text(rounds, encoding="utf-8")
    (root / "default" / "merged_accuracy_vs_time.csv").write_text(merged, encoding="utf-8")
    return root


def run(parent, change, capsys):
    status = csv_moves.main(["csv_moves.py", str(parent), str(change)])
    return status, capsys.readouterr().out


def test_identical_trees_exit_0(tmp_path, capsys):
    status, out = run(make_tree(tmp_path / "parent"), make_tree(tmp_path / "change"), capsys)
    assert status == 0
    assert out.strip() == "0 moved, 2 byte-identical"


def test_moved_cell_exits_1_naming_file_and_first_moved_row(tmp_path, capsys):
    parent = make_tree(tmp_path / "parent")
    change = make_tree(tmp_path / "change", rounds=ROUNDS.replace("120.0,0.5", "120.0,0.55"),
                       merged=MERGED.replace("scheme1,1,0,60.0,0.125", "scheme1,1,0,66.0,0.125"))
    status, out = run(parent, change, capsys)
    assert status == 1
    lines = out.splitlines()
    rounds_at = lines.index(f"moved: {Path('default', 'rounds_vrvfl_seed1.csv')}")
    assert lines[rounds_at + 1] == "  first moved: t=1"
    assert lines[rounds_at + 2] == "  accuracy: max relative change 0.1"
    merged_at = lines.index(f"moved: {Path('default', 'merged_accuracy_vs_time.csv')}")
    assert lines[merged_at + 1] == "  first moved: scheduler=scheme1 seed=1 t=0"
    assert lines[merged_at + 2] == "  time_cum: max relative change 0.1"
    assert lines[-1] == "2 moved, 0 byte-identical"


def test_missing_change_file_counts_as_moved(tmp_path, capsys):
    parent = make_tree(tmp_path / "parent")
    change = make_tree(tmp_path / "change")
    (change / "default" / "rounds_vrvfl_seed1.csv").unlink()
    status, out = run(parent, change, capsys)
    assert status == 1
    assert f"missing: {Path('default', 'rounds_vrvfl_seed1.csv')}" in out.splitlines()


def test_change_only_file_counts_as_moved(tmp_path, capsys):
    parent = make_tree(tmp_path / "parent")
    change = make_tree(tmp_path / "change")
    (change / "dense").mkdir()
    (change / "dense" / "rounds_scheme1_seed1.csv").write_text(ROUNDS, encoding="utf-8")
    status, out = run(parent, change, capsys)
    assert status == 1
    assert out.splitlines() == [f"added: {Path('dense', 'rounds_scheme1_seed1.csv')}",
                                "1 moved, 2 byte-identical"]


def test_parent_without_csv_exits_2(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    change = make_tree(tmp_path / "change")
    assert csv_moves.main(["csv_moves.py", str(tmp_path / "parent"), str(change)]) == 2
    assert "no CSV files under" in capsys.readouterr().err


def test_differing_platforms_are_printed_first(tmp_path, capsys):
    parent = make_tree(tmp_path / "parent")
    change = make_tree(tmp_path / "change")
    skylake = "platform = numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX\n"
    (parent / "platform.txt").write_text(skylake, encoding="utf-8")
    (change / "platform.txt").write_text(skylake, encoding="utf-8")
    assert run(parent, change, capsys) == (0, "0 moved, 2 byte-identical\n")
    (change / "platform.txt").write_text(skylake.replace("SkylakeX", "Haswell"),
                                         encoding="utf-8")
    status, out = run(parent, change, capsys)
    assert status == 0
    assert out.splitlines() == [f"parent {skylake.strip()}",
                                f"change {skylake.strip().replace('SkylakeX', 'Haswell')}",
                                "0 moved, 2 byte-identical"]
    (change / "platform.txt").unlink()
    assert run(parent, change, capsys)[1].splitlines()[1] == "change no platform.txt"
