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
SPLIT = (rf"solve {NUMBER} ms = scan {NUMBER} \+ pricing {NUMBER} \+ alternations {NUMBER};"
         r"  (\d+) alternations converged, (\d+) rate evaluations, (\d+) water-fills$")


def test_reports_each_instance_and_the_corpus(tmp_path, capsys):
    # an interior solve whose scan prices the budget, and an alpha = 1 solve
    for name in ("desk_vrvfl_s12_r0.txt", "desk_scheme2_s12_r0.txt"):
        shutil.copy(CORPUS / name, tmp_path / name)
    assert solver_split.main(["solver_split.py", str(tmp_path), "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3

    interior = next(line for line in lines if line.startswith("desk_vrvfl_s12_r0"))
    solve, scan, pricing, alternations, runs, rates, fills = map(
        float, re.search(SPLIT, interior).groups())
    assert scan > 0.0 and pricing > 0.0 and rates > 0 and fills > 0 and runs >= 1
    assert abs(scan + pricing + alternations - solve) < 0.02

    # alpha = 1: the floor start alone, with no scan and no rate search
    endpoint = next(line for line in lines if line.startswith("desk_scheme2_s12_r0"))
    assert re.search(SPLIT, endpoint) and " scan 0.00 + pricing 0.00 " in endpoint
    assert ", 0 rate evaluations, " in endpoint

    assert lines[-1].startswith("corpus: 2 instances, solve ")


def test_empty_corpus_exits_2(tmp_path, capsys):
    assert solver_split.main(["solver_split.py", str(tmp_path)]) == 2
    assert "no instance files under" in capsys.readouterr().err
