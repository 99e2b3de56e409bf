"""scripts/solver_split.py: the per-instance report that the solver's figures are remade from."""

import importlib.util
import re
import shutil
from pathlib import Path

from vflsim import scheduler

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solver_split.py"
CORPUS = Path(__file__).resolve().parent.parent / "benchmarks" / "corpus"
_spec = importlib.util.spec_from_file_location("solver_split", SCRIPT)
solver_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_split)

NUMBER = r"(\d+(?:\.\d+)?)"
SPLIT = (rf"solve {NUMBER} ms = scan {NUMBER} \+ pricing {NUMBER} \+ alternations {NUMBER};"
         r"  (\d+) alternations converged, (\d+) rate evaluations, (\d+) water-fills,"
         r" (\d+) exact ceilings, (\d+) pricing iterations, (\d+) sliced windows$")
SUBTOTAL = (rf"solve {NUMBER} ms = scan {NUMBER} \+ pricing {NUMBER} \+ alternations {NUMBER};"
            r" (\d+) rate evaluations, (\d+) water-fills, (\d+) exact ceilings,"
            r" (\d+) pricing iterations, (\d+) sliced windows$")


def test_reports_each_instance_and_the_corpus(tmp_path, capsys):
    # an interior solve whose scan computes exact totals and whose candidate
    # fits the budget unpriced, one whose scan's bounds send it straight to
    # pricing, one whose scan slices windows that no prefix minimum settles, an
    # alpha = 1 solve and a solve whose budget pins every u at u_min
    for name in ("small_n5_8.txt", "desk_vrvfl_s12_r0.txt", "default_vrvfl_s2_r0.txt",
                 "desk_scheme2_s12_r0.txt", "dense_vrvfl_s1_r0.txt"):
        shutil.copy(CORPUS / name, tmp_path / name)
    assert solver_split.main(["solver_split.py", str(tmp_path), "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10

    interior = next(line for line in lines if line.startswith("small_n5_8"))
    solve, scan, pricing, alternations, runs, rates, fills, exact, steps, sliced = map(
        float, re.search(SPLIT, interior).groups())
    assert scan > 0.0 and rates > 0 and fills > 0 and runs >= 1
    assert abs(scan + pricing + alternations - solve) < 0.02
    assert exact > 0 and " certified " not in interior
    assert " pricing 0.00 " in interior and steps == 0 and sliced == 0

    # certified: the bounds prove the unpriced candidate over N, and the scan
    # computes no exact total before it prices the budget, in passes whose
    # search steps the line sums
    certified = next(line for line in lines if line.startswith("desk_vrvfl_s12_r0"))
    assert " alpha=0.4 certified  solve " in certified
    _, scan, pricing, _, _, _, _, exact, steps, _ = map(float,
                                                        re.search(SPLIT, certified).groups())
    assert scan > 0.0 and pricing > 0.0 and exact == 0 and steps >= len(scheduler._PRICE_PASSES)

    # sliced: the bounds of this certified default scan read 2 windows whose
    # minimum is not that of the grid up to their right end
    default = next(line for line in lines if line.startswith("default_vrvfl_s2_r0"))
    assert " certified " in default and re.search(SPLIT, default).groups()[-1] == "2"

    # alpha = 1: the floor start alone, with no scan and no rate search
    endpoint = next(line for line in lines if line.startswith("desk_scheme2_s12_r0"))
    assert re.search(SPLIT, endpoint) and " scan 0.00 + pricing 0.00 " in endpoint
    assert ", 0 rate evaluations, " in endpoint

    # pinned: the scan returns the floor in a few microseconds (it took about
    # 24 ms while it scanned), which print as 0.00 or 0.01 ms, and prices nothing
    pinned = next(line for line in lines if line.startswith("dense_vrvfl_s1_r0"))
    assert " alpha=0.4 pinned  solve " in pinned
    _, scan, pricing, _, _, _, _, exact, steps, sliced = map(float,
                                                             re.search(SPLIT, pinned).groups())
    assert scan < 0.05 and pricing == 0.0 and exact == 0 and steps == 0 and sliced == 0
    assert " pinned " not in interior + endpoint + certified
    assert " certified " not in endpoint + pinned

    # one subtotal per regime, in name order, then the corpus, whose counts
    # are the regimes' sums
    assert lines[5].startswith("default: 1 instances, solve ")
    assert lines[6].startswith("dense: 1 instances, solve ")
    assert lines[7].startswith("desk: 2 instances, solve ")
    assert lines[8].startswith("small: 1 instances, solve ")
    assert lines[9].startswith("corpus: 5 instances, solve ")
    subtotals = [list(map(float, re.search(SUBTOTAL, line).groups())) for line in lines[5:]]
    assert subtotals[-1][4:] == [sum(c) for c in zip(*(row[4:] for row in subtotals[:-1]))]
    assert subtotals[0][-1] == subtotals[-1][-1] == 2


def test_empty_corpus_exits_2(tmp_path, capsys):
    assert solver_split.main(["solver_split.py", str(tmp_path)]) == 2
    assert "no instance files under" in capsys.readouterr().err
