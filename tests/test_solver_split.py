"""scripts/solver_split.py: the per-instance report that the solver's figures are remade from."""

import importlib.util
import re
import shutil
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solver_split.py"
CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"
_spec = importlib.util.spec_from_file_location("solver_split", SCRIPT)
solver_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_split)

NUMBER = r"(\d+(?:\.\d+)?)"


def test_reports_each_instance_and_the_corpus(tmp_path, capsys):
    # an interior solve whose scan's candidate wins, and an alpha = 1 solve
    for name in ("desk_vrvfl_s12_r0.txt", "desk_scheme2_s12_r0.txt"):
        shutil.copy(CORPUS / name, tmp_path / name)
    assert solver_split.main(["solver_split.py", str(tmp_path), "1"]) == 0
    lines = capsys.readouterr().out.splitlines()

    interior = lines.index(next(line for line in lines if line.startswith("desk_vrvfl_s12_r0")))
    solve, scan, alternations = map(float, re.search(
        rf"solve {NUMBER} ms = scan {NUMBER} \+ alternations {NUMBER}$", lines[interior]).groups())
    assert scan > 0.0 and abs(scan + alternations - solve) < 0.02
    starts = lines[interior + 1:interior + 4]
    assert [line.replace("*", " ").split()[0] for line in starts] == ["floor", "parking", "scan"]
    assert starts[2].lstrip().startswith("* scan")
    assert all(re.search(r"\d+ alternations converged;  alone \d+ rate evaluations,"
                         r" \d+ water-fills$", line) for line in starts)
    assert re.match(r"    lockstep \d+ rate calls for \d+ start evaluations, \d+ fill calls"
                    r" for \d+, \d+ objective calls$", lines[interior + 4])

    # alpha = 1: the floor start alone, with no scan and no rate search
    endpoint = lines.index(next(line for line in lines if line.startswith("desk_scheme2_s12_r0")))
    assert " scan 0.00 " in lines[endpoint]
    assert lines[endpoint + 1].lstrip().startswith("* floor")
    assert "alone 0 rate evaluations, 0 water-fills" in lines[endpoint + 1]
    assert lines[endpoint + 2].startswith("    lockstep 0 rate calls for 0 start evaluations")

    assert lines[-1].startswith("corpus: 2 instances, solve ")


def test_lockstep_serves_every_start_its_evaluations(tmp_path, capsys):
    shutil.copy(CORPUS / "small_n3_6.txt", tmp_path)
    solver_split.main(["solver_split.py", str(tmp_path), "1"])
    out = capsys.readouterr().out
    rate_calls, rate_evals, fill_calls, fills = map(int, re.search(
        r"lockstep (\d+) rate calls for (\d+) start evaluations, (\d+) fill calls for (\d+)",
        out).groups())
    # one batched call serves up to three starts
    assert rate_calls <= rate_evals <= 3 * rate_calls
    assert fill_calls <= fills <= 3 * fill_calls


def test_empty_corpus_exits_2(tmp_path, capsys):
    assert solver_split.main(["solver_split.py", str(tmp_path)]) == 2
    assert "no instance files under" in capsys.readouterr().err
