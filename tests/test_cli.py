"""CLI smoke tests."""

import pytest

from repro.cli import main


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 6" in out and "Fig. 7" in out


def test_survive_command(capsys):
    code = main([
        "survive", "--scheme", "Conv", "--scenario", "dense-cpu",
        "--window", "300",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "survival" in out


def test_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["survive", "--scheme", "NOPE"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["bench"],
    ["bench", "--scale", "--cohort"],
    ["bench", "--cohort", "--compiled"],
])
def test_bench_needs_exactly_one_benchmark(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--scale" in capsys.readouterr().err


def test_library_error_is_one_line_exit_2(capsys):
    assert main(["survive", "--window", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out


def test_search_command(capsys, tmp_path):
    out_path = tmp_path / "frontier.json"
    code = main([
        "search", "--scheme", "Conv", "--window", "600",
        "--widths", "1", "--rates", "6", "--nodes", "2,6",
        "--probes", "0.75", "--output", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "worst case : 57.0 s" in out
    assert "search-cpu-n6-w1-r6-o300-b0p1-s7" in out
    import json
    document = json.loads(out_path.read_text())
    assert document["worst_survival_s"] == 57.0


def test_search_command_journal_resume(capsys, tmp_path):
    journal = tmp_path / "journal.jsonl"
    flags = [
        "search", "--scheme", "Conv", "--window", "600",
        "--widths", "1", "--rates", "6", "--nodes", "6",
        "--journal", str(journal),
    ]
    assert main(flags) == 0
    first = capsys.readouterr().out
    assert main(flags + ["--resume"]) == 0
    resumed = capsys.readouterr().out
    assert "0 cells run" in resumed
    assert "worst case : 57.0 s" in first
    assert "worst case : 57.0 s" in resumed


def test_search_command_refines_around_the_worst_case(capsys):
    code = main([
        "search", "--scheme", "Conv", "--window", "600",
        "--widths", "1,2", "--rates", "6", "--nodes", "6",
        "--probes", "0.75", "--refine", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # Refinement pins nodes to the incumbent and re-grids the widths
    # around it: 1.0 plus the 1.5 s midpoint toward 2.0, which ties the
    # incumbent at 57.0 s and joins the printed argmin set.
    assert "worst case : 57.0 s" in out
    assert "search-cpu-n6-w1p5-r6-o300-b0p1-s7" in out


def test_tune_command_finds_cheapest_pass(capsys):
    code = main([
        "tune", "--scheme", "uDEB", "--window", "600",
        "--widths", "4", "--rates", "6", "--nodes", "10",
        "--target", "267", "--udeb", "0.02,0.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cheapest pass: udeb=0.5Wh" in out
    assert "fails" in out  # the 0.02 Wh bank is tried and rejected


def test_tune_command_exits_nonzero_when_nothing_passes(capsys):
    code = main([
        "tune", "--scheme", "uDEB", "--window", "600",
        "--widths", "4", "--rates", "6", "--nodes", "10",
        "--target", "400", "--udeb", "0.02",
    ])
    assert code == 1
    assert "no configuration" in capsys.readouterr().out
